package akamaidns

// One benchmark per paper table/figure (each regenerates the artifact and
// reports its headline metric), micro-benchmarks for the hot paths, and
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"akamaidns/internal/anycast"
	"akamaidns/internal/attack"
	"akamaidns/internal/bgp"
	"akamaidns/internal/core"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/experiments"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/obs"
	"akamaidns/internal/pop"
	"akamaidns/internal/queue"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// --- Figure/table regeneration benches -------------------------------------

func reportPass(b *testing.B, rep experiments.Report) {
	b.Helper()
	if !rep.Pass {
		b.Fatalf("%s shape mismatch: %s", rep.ID, rep.Measured)
	}
	b.ReportMetric(1, "shape-match")
}

func BenchmarkFig1WorkloadWeek(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig1WorkloadWeek(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig2Concentration(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig2Concentration(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig3PerResolverRates(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig3PerResolverRates(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig4WeeklyChange(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig4WeeklyChange(true)
	}
	reportPass(b, rep)
}

func BenchmarkTableResolverConsistency(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.TableResolverConsistency(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig8Failover(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig8Failover(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig9DecisionTree(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig9DecisionTree()
	}
	reportPass(b, rep)
}

func BenchmarkFig10NXDomainFilter(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig10NXDomainFilter(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig11TwoTierSpeedup(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig11TwoTierSpeedup(true)
	}
	reportPass(b, rep)
}

func BenchmarkFig12ResolutionTimes(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig12ResolutionTimes(true)
	}
	reportPass(b, rep)
}

func BenchmarkTableRT(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.TableRT(true)
	}
	reportPass(b, rep)
}

func BenchmarkTableIPTTL(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.TableIPTTLConsistency(true)
	}
	reportPass(b, rep)
}

func BenchmarkTableDelegationCapacity(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.TableDelegationCapacity()
	}
	reportPass(b, rep)
}

func BenchmarkExtPushSpeedup(b *testing.B) {
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.ExtPushSpeedup(true)
	}
	reportPass(b, rep)
}

// --- Hot-path micro benches -------------------------------------------------

const benchZone = `
$ORIGIN bench.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
www  IN A 192.0.2.2
api  IN CNAME www
*.w  IN A 192.0.2.3
txt  IN TXT "v=spf1 include:example.test -all"
`

func benchStore(b *testing.B) *zone.Store {
	b.Helper()
	st := zone.NewStore()
	st.Put(zone.MustParseMaster(benchZone, dnswire.MustName("bench.test")))
	return st
}

func BenchmarkWirePack(b *testing.B) {
	q := dnswire.NewQuery(1, dnswire.MustName("www.bench.test"), dnswire.TypeA)
	eng := nameserver.NewEngine(benchStore(b))
	resp, _, _ := eng.Answer(q, nameserver.ResolverKey("r"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resp.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireUnpack(b *testing.B) {
	q := dnswire.NewQuery(1, dnswire.MustName("www.bench.test"), dnswire.TypeA)
	eng := nameserver.NewEngine(benchStore(b))
	resp, _, _ := eng.Answer(q, nameserver.ResolverKey("r"))
	wire, _ := resp.Pack()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZoneLookupExact(b *testing.B) {
	z := zone.MustParseMaster(benchZone, dnswire.MustName("bench.test"))
	name := dnswire.MustName("www.bench.test")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := z.View().Lookup(name, dnswire.TypeA); a.Result != zone.Success {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkZoneLookupWildcard(b *testing.B) {
	z := zone.MustParseMaster(benchZone, dnswire.MustName("bench.test"))
	name := dnswire.MustName("deep.label.w.bench.test")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := z.View().Lookup(name, dnswire.TypeA); a.Result != zone.Success {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkEngineAnswer(b *testing.B) {
	eng := nameserver.NewEngine(benchStore(b))
	q := dnswire.NewQuery(1, dnswire.MustName("api.bench.test"), dnswire.TypeA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _, _ := eng.Answer(q, nameserver.ResolverKey("r"))
		if resp.RCode != dnswire.RCodeNoError {
			b.Fatal("bad answer")
		}
	}
}

func BenchmarkPipelineScoreClean(b *testing.B) {
	store := benchStore(b)
	rl := filters.NewRateLimit()
	al := filters.NewAllowlist()
	al.Add("r1")
	al.SetActive(true)
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	hc := filters.NewHopCount()
	hc.Learn("r1", 56)
	hc.SetActive(true)
	lo := filters.NewLoyalty()
	lo.Observe("r1", 0)
	lo.SetActive(true)
	pipe := filters.NewPipeline(rl, al, nx, hc, lo)
	q := &filters.Query{Resolver: "r1", Qname: dnswire.MustName("www.bench.test").AppendWire(nil),
		Type: dnswire.TypeA, Zone: dnswire.MustName("bench.test"), IPTTL: 56}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Now = simtime.Time(i) * simtime.Millisecond
		pipe.Score(q)
	}
}

// BenchmarkObsCounterInc proves the observability hot path: one registry
// counter increment must stay well under 100ns so every serving-path
// metric is effectively free.
func BenchmarkObsCounterInc(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter(obs.MetricQueriesTotal, "bench", "transport", "udp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Load() != uint64(b.N) {
		b.Fatal("lost increments")
	}
}

// BenchmarkObsHistogramObserve proves latency-histogram observation stays
// under ~100ns: a short linear bucket scan plus two atomic adds.
func BenchmarkObsHistogramObserve(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram(obs.MetricQueryDuration, "bench", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the value so the bucket scan isn't branch-predicted flat.
		h.Observe(float64(i%1000) * 50e-6)
	}
	if h.Count() != uint64(b.N) {
		b.Fatal("lost observations")
	}
}

func BenchmarkQueueEnqueueDequeue(b *testing.B) {
	q := queue.MustNew(queue.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(float64(i%250), i)
		q.Dequeue()
	}
}

func BenchmarkZoneInfoCanExist(b *testing.B) {
	zi := nameserver.StoreZoneInfo{Store: benchStore(b)}
	hit := dnswire.MustName("www.bench.test").AppendWire(nil)
	miss := dnswire.MustName("a3n92nv9.bench.test").AppendWire(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !zi.CanExist(hit) || zi.CanExist(miss) {
			b.Fatal("view wrong")
		}
	}
}

// --- Ablation benches -------------------------------------------------------

// BenchmarkAblationQueuesVsFIFO quantifies the value of penalty queues
// (§4.3.3): under a scored attack, the fraction of legitimate queries
// answered with priority queues vs a plain FIFO of equal capacity.
func BenchmarkAblationQueuesVsFIFO(b *testing.B) {
	run := func(fifo bool) float64 {
		sched := simtime.NewScheduler()
		store := benchStore(b)
		al := filters.NewAllowlist()
		al.Add("legit")
		al.SetActive(true)
		pipe := filters.NewPipeline(al)
		cfg := nameserver.DefaultConfig("ab")
		cfg.ComputeQPS = 1000
		cfg.IOQPS = 1e9
		srv := nameserver.NewServer(sched, cfg, nameserver.NewEngine(store), pipe)
		if fifo {
			srv.UseFIFO()
		}
		legitMsg := dnswire.NewQuery(1, dnswire.MustName("www.bench.test"), dnswire.TypeA)
		atkMsg := dnswire.NewQuery(2, dnswire.MustName("www.bench.test"), dnswire.TypeA)
		// 500 qps legit + 4000 qps attack for 2 s.
		sched.Every(2*time.Millisecond, func(now simtime.Time) {
			srv.Receive(now, &nameserver.Request{Resolver: "legit", Legit: true, Msg: legitMsg})
		})
		sched.Every(250*time.Microsecond, func(now simtime.Time) {
			srv.Receive(now, &nameserver.Request{Resolver: "bot", Legit: false, Msg: atkMsg})
		})
		sched.RunUntil(2 * simtime.Second)
		m := srv.Snapshot()
		return float64(m.AnsweredLegit) / float64(m.ReceivedLegit)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	if with <= without {
		b.Fatalf("penalty queues (%.2f) did not beat FIFO (%.2f)", with, without)
	}
	b.ReportMetric(with*100, "%legit-queues")
	b.ReportMetric(without*100, "%legit-fifo")
}

// BenchmarkAblationQoDFirewall quantifies §4.2.4 containment: crashes per
// 1000 QoD queries with and without the firewall. The queries cycle three
// trap names, and the quarantine holds one signature per name.
func BenchmarkAblationQoDFirewall(b *testing.B) {
	run := func(firewall bool) uint64 {
		sched := simtime.NewScheduler()
		cfg := nameserver.DefaultConfig("qod")
		cfg.QoDFirewall = firewall
		srv := nameserver.NewServer(sched, cfg, nameserver.NewEngine(benchStore(b)), nil)
		gen := attack.NewGenerator(attack.QueryOfDeath, dnswire.MustName("bench.test"), 10, nil,
			rand.New(rand.NewSource(1)))
		for i := 0; i < 1000; i++ {
			ev := gen.Next()
			srv.Receive(sched.Now(), &nameserver.Request{Resolver: ev.Resolver, Msg: ev.Msg})
			sched.Run()
		}
		return srv.Snapshot().Crashes
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	if with >= without {
		b.Fatalf("firewall crashes %d not fewer than unprotected %d", with, without)
	}
	b.ReportMetric(float64(with), "crashes-firewalled")
	b.ReportMetric(float64(without), "crashes-unprotected")
}

// BenchmarkAblationDelegationUniqueness quantifies §4.3.1's collateral-
// damage argument: with unique per-enterprise delegation sets, saturating
// every PoP of one enterprise's clouds leaves every other enterprise at
// least one live delegation; with a shared delegation plan it does not.
func BenchmarkAblationDelegationUniqueness(b *testing.B) {
	const enterprises = 200
	evaluate := func(sets []anycast.DelegationSet) (unreachable int) {
		// Attack enterprise 0: its six clouds are fully saturated.
		dead := map[anycast.CloudID]bool{}
		for _, c := range sets[0] {
			dead[c] = true
		}
		for _, ds := range sets[1:] {
			alive := false
			for _, c := range ds {
				if !dead[c] {
					alive = true
					break
				}
			}
			if !alive {
				unreachable++
			}
		}
		return unreachable
	}
	var uniqueHit, sharedHit int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(3))
		a := anycast.NewAssigner(rng)
		unique := make([]anycast.DelegationSet, enterprises)
		for e := range unique {
			ds, err := a.Assign(fmt.Sprintf("e%d", e))
			if err != nil {
				b.Fatal(err)
			}
			unique[e] = ds
		}
		shared := make([]anycast.DelegationSet, enterprises)
		one := unique[0]
		for e := range shared {
			shared[e] = one
		}
		uniqueHit = evaluate(unique)
		sharedHit = evaluate(shared)
	}
	if uniqueHit != 0 {
		b.Fatalf("unique sets: %d enterprises lost all delegations", uniqueHit)
	}
	if sharedHit != enterprises-1 {
		b.Fatalf("shared plan: expected total collateral damage, got %d", sharedHit)
	}
	b.ReportMetric(float64(uniqueHit), "collateral-unique")
	b.ReportMetric(float64(sharedHit), "collateral-shared")
}

// BenchmarkNetServeUDP measures the real socket server's end-to-end query
// throughput on loopback.
func BenchmarkNetServeUDP(b *testing.B) {
	// Guard against environments without loopback sockets.
	if strings.Contains(b.Name(), "skip-net") {
		b.Skip()
	}
	benchNetServe(b)
}

// BenchmarkAblationInputDelayed quantifies §4.2.3: a poisoned input crashes
// every regular nameserver; with input-delayed instances deployed the
// platform keeps answering (with intentionally stale data), without them it
// goes dark.
func BenchmarkAblationInputDelayed(b *testing.B) {
	run := func(withDelayed bool) float64 {
		opts := core.DefaultOptions()
		opts.NumPoPs = 12
		opts.MachinesPerPoP = 1
		opts.InputDelayed = withDelayed
		p, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		ent, err := p.AddEnterprise("ex", core.MustName("ex.test"), `
$TTL 300
@   IN SOA ns1.ex.test. host.ex.test. ( 1 3600 600 604800 30 )
www IN A 192.0.2.44
`)
		if err != nil {
			b.Fatal(err)
		}
		c := p.AddClient("probe", "na")
		p.Converge(time.Minute)
		// The poisoned input: every regular machine crashes and stays down.
		for _, m := range p.Machines {
			if !m.Delayed() {
				m.Server.SetSuspended(p.Sched.Now(), true)
			}
		}
		p.Converge(30 * time.Second)
		answered := 0
		for _, cl := range ent.DelegationSet.Clouds() {
			got := false
			c.Probe(cl, core.MustName("www.ex.test"), dnswire.TypeA, 2*time.Second,
				func(_ simtime.Time, r *pop.DNSResponse) {
					if r != nil {
						got = true
					}
				})
			p.Converge(4 * time.Second)
			if got {
				answered++
			}
		}
		return float64(answered) / float64(anycast.DelegationSetSize)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	if with <= without {
		b.Fatalf("input-delayed availability %.2f not better than %.2f", with, without)
	}
	if without != 0 {
		b.Fatalf("platform without input-delayed instances answered %.2f during total regular outage", without)
	}
	b.ReportMetric(with*100, "%clouds-up-delayed")
	b.ReportMetric(without*100, "%clouds-up-none")
}

// BenchmarkBGPConvergence measures full-topology route convergence for one
// anycast origination over the generated world (the inner loop of Fig 8).
func BenchmarkBGPConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched := simtime.NewScheduler()
		net := netsim.New(sched)
		rng := rand.New(rand.NewSource(int64(i)))
		topo := netsim.GenTopology(net, netsim.DefaultRegions(), rng)
		w := bgp.NewWorld(net, bgp.DefaultConfig(), rng)
		for j, nd := range topo.Core {
			w.AddSpeaker(nd, bgp.ASN(1000+j))
		}
		for _, nd := range topo.Core {
			for _, nb := range nd.Neighbors() {
				if nb > nd.ID {
					w.Peer(w.Speaker(nd.ID), w.Speaker(nb), nil, nil)
				}
			}
		}
		b.StartTimer()
		w.Speaker(topo.Core[0].ID).Originate(netsim.Prefix("bench"), 0)
		sched.RunFor(2 * time.Minute)
		if got := len(w.Catchment(netsim.Prefix("bench"))); got != len(topo.Core) {
			b.Fatalf("converged to %d/%d", got, len(topo.Core))
		}
	}
}

// BenchmarkNetsimForward measures raw packet-forwarding event throughput.
func BenchmarkNetsimForward(b *testing.B) {
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	var prev, first *netsim.Node
	const hops = 8
	for i := 0; i < hops; i++ {
		nd := net.AddNode("n", netsim.GeoPoint{Lat: float64(i)})
		if prev != nil {
			net.ConnectDelay(prev, nd, time.Millisecond)
			prev.SetRoute("p", nd.ID)
		} else {
			first = nd
		}
		prev = nd
	}
	prev.SetRoute("p", prev.ID)
	delivered := 0
	prev.SetHandler(func(simtime.Time, *netsim.Node, *netsim.Packet) { delivered++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first.Send("p", nil)
		sched.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d/%d", delivered, b.N)
	}
}
