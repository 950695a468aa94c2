// Attack mitigation: replay the paper's §4.3.4 attack taxonomy against one
// nameserver's scoring pipeline, watch each filter catch the class it was
// designed for, and consult the Figure 9 traffic-engineering decision tree.
package main

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

const victimZone = `
$ORIGIN shop.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.10
cart IN A 192.0.2.11
`

func main() {
	sched := simtime.NewScheduler()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(victimZone, dnswire.MustName("shop.test")))

	// Build the full filter pipeline with learned history for a known
	// resolver population.
	rl := filters.NewRateLimit()
	al := filters.NewAllowlist()
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	nx.Threshold = 50
	hc := filters.NewHopCount()
	lo := filters.NewLoyalty()
	pipe := filters.NewPipeline(rl, al, nx, hc, lo)

	victims := make([]attack.Victim, 0, 20)
	now := simtime.Time(simtime.Hour)
	for i := 0; i < 20; i++ {
		res := fmt.Sprintf("isp-resolver-%d", i)
		ttl := 45 + i%15
		rl.Learn(res, 50)
		al.Add(res)
		hc.Learn(res, ttl)
		lo.Observe(res, now)
		victims = append(victims, attack.Victim{Resolver: res, IPTTL: ttl})
	}
	al.SetActive(true)
	hc.SetActive(true)
	lo.SetActive(true)

	rng := rand.New(rand.NewSource(1))
	zoneName := dnswire.MustName("shop.test")
	classes := []attack.Class{
		attack.DirectQuery, attack.RandomSubdomain, attack.SpoofedIP, attack.SpoofedIPTTL,
	}
	fmt.Println("attack class      -> avg penalty score (legit baseline scores 0)")
	for _, class := range classes {
		gen := attack.NewGenerator(class, zoneName, 200, victims, rng)
		total := 0.0
		const n = 2000
		for i := 0; i < n; i++ {
			ev := gen.Next()
			fq := &filters.Query{
				Resolver: ev.Resolver, Qname: ev.Msg.Questions[0].Name.AppendWire(nil),
				Type: dnswire.TypeA, Zone: zoneName, IPTTL: ev.IPTTL, Now: now,
			}
			score, _ := pipe.Score(fq)
			total += score
			// Feed NXDOMAIN outcomes back (random-subdomain queries miss).
			if class == attack.RandomSubdomain {
				pipe.ObserveAnswer(fq, true)
			}
			now = now.Add(time.Millisecond)
		}
		fmt.Printf("%-18s -> %6.1f\n", class, total/n)
	}

	// The perfect spoof (class 5) scores 0 at the victim's home PoP — but
	// anycast routes the attacker to a *different* PoP, whose loyalty
	// filter has never seen the victim resolver (§4.3.4).
	foreignLoyalty := filters.NewLoyalty()
	foreignLoyalty.SetActive(true)
	gen5 := attack.NewGenerator(attack.SpoofedIPTTL, zoneName, 200, victims, rng)
	ev := gen5.Next()
	foreignScore := foreignLoyalty.Score(&filters.Query{
		Resolver: ev.Resolver, Qname: ev.Msg.Questions[0].Name.AppendWire(nil),
		Type: dnswire.TypeA, Zone: zoneName, IPTTL: ev.IPTTL, Now: now,
	})
	fmt.Printf("%-18s -> %6.1f  (at the PoP the attacker is actually routed to)\n",
		"spoofed-ip-ttl", foreignScore)

	// Legit baseline after all that.
	legit := &filters.Query{Resolver: "isp-resolver-3", Qname: dnswire.MustName("www.shop.test").AppendWire(nil),
		Type: dnswire.TypeA, Zone: zoneName, IPTTL: 48, Now: now}
	score, _ := pipe.Score(legit)
	fmt.Printf("%-18s -> %6.1f\n", "legitimate", score)
	fmt.Printf("\nNXDOMAIN filter hot zones: %v\n", nx.HotZones())

	// The operator's decision tree (Figure 9) for escalating situations.
	fmt.Println("\ntraffic-engineering decisions:")
	for _, s := range []attack.Situation{
		{},
		{ResolversDoSed: true},
		{ResolversDoSed: true, ComputeSaturated: true},
		{ResolversDoSed: true, PeeringCongested: true, CanSpreadAttack: true},
		{ResolversDoSed: true, PeeringCongested: true},
	} {
		fmt.Printf("  %+v\n    -> %s\n", s, attack.Decide(s))
	}

	// Finally, the query-of-death: containment on, the first crash of each
	// trap name quarantines its minimized signature in the qod.Quarantine
	// the socket server also uses; matching queries are dropped for TQoD,
	// dissimilar ones served.
	cfg2 := nameserver.DefaultConfig("qod-canary")
	cfg2.QoDFirewall = true
	srv2 := nameserver.NewServer(sched, cfg2, nameserver.NewEngine(store), nil)
	gen := attack.NewGenerator(attack.QueryOfDeath, zoneName, 10, nil, rng)
	for i := 0; i < 50; i++ {
		ev := gen.Next()
		srv2.Receive(sched.Now(), &nameserver.Request{Resolver: ev.Resolver, IPTTL: ev.IPTTL, Msg: ev.Msg})
		sched.Run()
	}
	answered := 0
	srv2.Receive(sched.Now(), &nameserver.Request{
		Resolver: "isp-resolver-1", IPTTL: 46, Legit: true,
		Msg:     dnswire.NewQuery(1, dnswire.MustName("www.shop.test"), dnswire.TypeA),
		Respond: func(simtime.Time, *dnswire.Message) { answered++ },
	})
	sched.Run()
	m := srv2.Snapshot()
	fmt.Printf("\nquery-of-death: %d attempts -> %d crashes (one per trap name), %d blocked by the quarantine, legit still answered: %v\n",
		50, m.Crashes, m.QoDBlocked, answered == 1)
}
