package filters

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/obs"
	"akamaidns/internal/simtime"
)

func q(resolver, name string, now simtime.Time) *Query {
	return &Query{
		Resolver: resolver,
		Name:     dnswire.MustName(name),
		Type:     dnswire.TypeA,
		IPTTL:    56,
		Now:      now,
	}
}

func TestRateLimitAllowsWithinRate(t *testing.T) {
	rl := NewRateLimit()
	rl.Learn("r1", 10)
	now := simtime.Time(0)
	// 10 qps for 30 seconds: never over.
	for i := 0; i < 300; i++ {
		if s := rl.Score(q("r1", "a.example.com", now)); s != 0 {
			t.Fatalf("query %d scored %v", i, s)
		}
		now = now.Add(100 * simtime.Millisecond.Duration())
	}
}

func TestRateLimitAllowsBursts(t *testing.T) {
	// Figure 3: bursty traffic (max >> avg) must pass; that is why the
	// platform uses a leaky bucket.
	rl := NewRateLimit()
	rl.Learn("r1", 10) // bucket capacity 150
	now := simtime.Time(simtime.Hour)
	over := 0
	for i := 0; i < 100; i++ { // instantaneous 100-query burst
		if rl.Score(q("r1", "a.example.com", now)) > 0 {
			over++
		}
	}
	if over != 0 {
		t.Fatalf("burst of 100 flagged %d times with capacity 150", over)
	}
}

func TestRateLimitFlagsSustainedExcess(t *testing.T) {
	rl := NewRateLimit()
	rl.Learn("r1", 10)
	now := simtime.Time(0)
	flagged := 0
	// 1000 qps for 10 seconds: bucket (cap 150) fills in ~0.15s.
	for i := 0; i < 10000; i++ {
		if rl.Score(q("r1", "a.example.com", now)) > 0 {
			flagged++
		}
		now = now.Add(simtime.Millisecond.Duration())
	}
	if flagged < 9000 {
		t.Fatalf("sustained 100x excess flagged only %d/10000", flagged)
	}
	if rl.Over == 0 {
		t.Fatal("Over counter not advanced")
	}
}

func TestRateLimitDrains(t *testing.T) {
	rl := NewRateLimit()
	rl.Learn("r1", 10)
	now := simtime.Time(0)
	// Fill the bucket.
	for i := 0; i < 200; i++ {
		rl.Score(q("r1", "x.example.com", now))
	}
	// After a long idle period the bucket must be empty again.
	now = now.Add(simtime.Minute.Duration())
	if s := rl.Score(q("r1", "x.example.com", now)); s != 0 {
		t.Fatalf("bucket did not drain: %v", s)
	}
}

func TestRateLimitDefaultAndLearn(t *testing.T) {
	rl := NewRateLimit()
	if rl.Limit("unknown") != rl.DefaultQPS {
		t.Fatal("default limit wrong")
	}
	rl.Learn("r", 123)
	if rl.Limit("r") != 123 {
		t.Fatal("learned limit wrong")
	}
	rl.Learn("r", 0) // unlearn
	if rl.Limit("r") != rl.DefaultQPS {
		t.Fatal("unlearn failed")
	}
}

func TestFixedWindowFlagsBursts(t *testing.T) {
	// Ablation: the naive window flags legitimate bursts the leaky bucket
	// tolerates.
	fw := newFixedWindowRateLimit()
	fw.Learn("r1", 10)
	now := simtime.Time(simtime.Hour)
	flagged := 0
	for i := 0; i < 100; i++ {
		if fw.Score(q("r1", "a.example.com", now)) > 0 {
			flagged++
		}
	}
	if flagged != 90 {
		t.Fatalf("fixed window flagged %d/100 burst queries, want 90", flagged)
	}
}

func TestAllowlist(t *testing.T) {
	al := NewAllowlist()
	al.Add("good1", "good2")
	query := q("bad", "a.example.com", 0)
	if al.Score(query) != 0 {
		t.Fatal("inactive allowlist scored")
	}
	al.SetActive(true)
	if al.Score(query) != PenaltyAllowlist {
		t.Fatal("active allowlist missed unknown resolver")
	}
	if al.Score(q("good1", "a.example.com", 0)) != 0 {
		t.Fatal("allowlisted resolver scored")
	}
	if !al.Contains("good2") || al.Contains("bad") || al.Len() != 2 {
		t.Fatal("membership wrong")
	}
	al.Remove("good2")
	if al.Contains("good2") {
		t.Fatal("Remove failed")
	}
	if al.Misses == 0 {
		t.Fatal("Misses not counted")
	}
}

func TestHopCount(t *testing.T) {
	hc := NewHopCount()
	hc.Learn("r1", 56)
	probe := q("r1", "a.example.com", 0)
	probe.IPTTL = 47
	if hc.Score(probe) != 0 {
		t.Fatal("inactive filter scored")
	}
	hc.SetActive(true)
	if hc.Score(probe) != PenaltyHopCount {
		t.Fatal("9-hop deviation not flagged")
	}
	for _, ttl := range []int{55, 56, 57} { // within ±1
		probe.IPTTL = ttl
		if hc.Score(probe) != 0 {
			t.Fatalf("TTL %d flagged within tolerance", ttl)
		}
	}
	// Unknown resolvers are not scored by this filter.
	unk := q("stranger", "a.example.com", 0)
	unk.IPTTL = 3
	if hc.Score(unk) != 0 {
		t.Fatal("unknown resolver scored by hopcount")
	}
	if want, ok := hc.Expected("r1"); !ok || want != 56 {
		t.Fatal("Expected lookup wrong")
	}
}

func TestLoyalty(t *testing.T) {
	lo := NewLoyalty()
	lo.Observe("r1", 0)
	probe := q("r2", "a.example.com", simtime.Hour)
	if lo.Score(probe) != 0 {
		t.Fatal("inactive loyalty scored")
	}
	lo.SetActive(true)
	if lo.Score(probe) != PenaltyLoyalty {
		t.Fatal("never-seen resolver not flagged")
	}
	if lo.Score(q("r1", "a.example.com", simtime.Hour)) != 0 {
		t.Fatal("known resolver flagged")
	}
	// Retention expiry.
	old := q("r1", "a.example.com", 8*simtime.Day)
	if lo.Score(old) != PenaltyLoyalty {
		t.Fatal("stale resolver not flagged after retention")
	}
	if !lo.Known("r1", simtime.Hour) || lo.Known("r1", 8*simtime.Day) {
		t.Fatal("Known retention wrong")
	}
	if lo.Len() != 1 {
		t.Fatalf("Len = %d", lo.Len())
	}
}

// fakeZoneInfo implements ZoneInfo for tests: a fixed set of names, in wire
// form, that can exist.
type fakeZoneInfo map[string]bool

func (f fakeZoneInfo) CanExist(qname []byte) bool { return f[string(qname)] }

func newFakeZone() (fakeZoneInfo, dnswire.Name) {
	zi := fakeZoneInfo{}
	for _, name := range []string{"example.com", "www.example.com"} {
		zi[string(dnswire.MustName(name).AppendWire(nil))] = true
	}
	return zi, dnswire.MustName("example.com")
}

func TestNXDomainActivatesOnThreshold(t *testing.T) {
	zi, zn := newFakeZone()
	f := NewNXDomain(zi, PerHotZone)
	f.Threshold = 10
	attack := q("r1", "a3n92nv9.example.com", 0)
	attack.Zone = zn
	// Below threshold: no scoring.
	for i := 0; i < 9; i++ {
		f.ObserveResponse(zn, true, 0)
	}
	if f.Score(attack) != 0 {
		t.Fatal("filter active below threshold")
	}
	f.ObserveResponse(zn, true, 0)
	if f.Score(attack) != PenaltyNXDomain {
		t.Fatal("filter inactive at threshold")
	}
	// Legitimate names still pass.
	legit := q("r1", "www.example.com", 0)
	legit.Zone = zn
	if f.Score(legit) != 0 {
		t.Fatal("legitimate name penalized")
	}
	if len(f.HotZones()) != 1 {
		t.Fatalf("HotZones = %v", f.HotZones())
	}
	if f.Flagged.Load() == 0 {
		t.Fatal("Flagged not counted")
	}
}

func TestNXDomainWindowResets(t *testing.T) {
	zi, zn := newFakeZone()
	f := NewNXDomain(zi, PerHotZone)
	f.Threshold = 10
	// 9 NXDOMAINs now, 9 more after the window: never hot.
	for i := 0; i < 9; i++ {
		f.ObserveResponse(zn, true, 0)
	}
	later := simtime.Time(11 * simtime.Second)
	for i := 0; i < 9; i++ {
		f.ObserveResponse(zn, true, later)
	}
	attack := q("r1", "junk.example.com", later)
	attack.Zone = zn
	if f.Score(attack) != 0 {
		t.Fatal("window did not reset")
	}
}

func TestNXDomainNoZoneNoScore(t *testing.T) {
	zi, _ := newFakeZone()
	f := NewNXDomain(zi, PerHotZone)
	probe := q("r1", "junk.example.com", 0) // Zone left zero
	if f.Score(probe) != 0 {
		t.Fatal("zero zone scored")
	}
	f.ObserveResponse(dnswire.Name{}, true, 0) // must not panic or count
}

func TestPipelineSumsAndReports(t *testing.T) {
	al := NewAllowlist()
	al.SetActive(true)
	lo := NewLoyalty()
	lo.SetActive(true)
	p := NewPipeline(al, lo, NewHopCount())
	reg := obs.NewRegistry()
	p.Instrument(reg)
	total, detail := p.Score(q("stranger", "a.example.com", 0))
	if total != PenaltyAllowlist+PenaltyLoyalty || detail != nil {
		t.Fatalf("score = %v %v, want %v and no breakdown", total, detail, PenaltyAllowlist+PenaltyLoyalty)
	}
	// The per-filter breakdown lives on the hit counters.
	for filter, want := range map[string]float64{"allowlist": 1, "loyalty": 1, "hopcount": 0} {
		if got, _ := reg.Snapshot().Value(obs.MetricFilterHitsTotal, "filter", filter); got != want {
			t.Errorf("%s hits = %v, want %v", filter, got, want)
		}
	}
	// Clean query: zero, and the inactive hop-count filter adds nothing.
	al.Add("known")
	lo.Observe("known", 0)
	if total, _ = p.Score(q("known", "a.example.com", 0)); total != 0 {
		t.Fatalf("clean query scored %v", total)
	}
}

// TestPipelineObserveAnswer: the pipeline is the filters' one feedback path.
// Answers forwarded through it make a zone hot from every answer, and a
// resolver loyal only from answers to its calm queries; filters that do not
// learn from answers are passed over.
func TestPipelineObserveAnswer(t *testing.T) {
	zi, zn := newFakeZone()
	nx := NewNXDomain(zi, PerHotZone)
	nx.Threshold = 10
	lo := NewLoyalty()
	lo.SetActive(true)
	p := NewPipeline(NewRateLimit(), nx, NewAllowlist(), lo)
	attack := q("r1", "a3n92nv9.example.com", 0)
	attack.Zone = zn
	if total, _ := p.Score(attack); total != PenaltyLoyalty {
		t.Fatalf("before any answer: score %v, want the loyalty penalty alone", total)
	}
	p.ObserveAnswer(attack, false) // a non-NXDOMAIN answer counts nothing
	for i := 0; i < 9; i++ {
		p.ObserveAnswer(attack, true)
	}
	if len(nx.HotZones()) != 0 {
		t.Fatalf("hot below threshold: %v", nx.HotZones())
	}
	p.ObserveAnswer(attack, true)
	if hot := nx.HotZones(); len(hot) != 1 || hot[0] != zn {
		t.Fatalf("HotZones = %v, want [%v]", hot, zn)
	}
	// The answers to a penalised query taught loyalty nothing.
	if total, _ := p.Score(attack); total != PenaltyNXDomain+PenaltyLoyalty {
		t.Fatalf("after ten NXDOMAIN answers: score %v, want the nxdomain and loyalty penalties", total)
	}
	// With loyalty standing down, r1's query for a name that exists scores
	// 0, and its answer makes r1 loyal.
	lo.SetActive(false)
	calm := q("r1", "www.example.com", 0)
	calm.Zone = zn
	if total, _ := p.Score(calm); total != 0 {
		t.Fatalf("calm query scored %v", total)
	}
	p.ObserveAnswer(calm, false)
	lo.SetActive(true)
	if total, _ := p.Score(attack); total != PenaltyNXDomain {
		t.Fatalf("after a calm answer: score %v, want the nxdomain penalty alone", total)
	}
}

// TestRateLimitBucketsBounded: a flood of distinct sources cannot grow the
// bucket map past its cap, and the sweep that bounds it keeps the state of a
// resolver that is over its limit.
func TestRateLimitBucketsBounded(t *testing.T) {
	rl := NewRateLimit()
	now := simtime.Time(0)
	hog := q("hog", "a.example.com", now)
	for rl.Score(hog) == 0 {
	}
	for i := 0; i < 1<<17; i++ {
		now += 10 * simtime.Microsecond
		rl.Score(q(fmt.Sprintf("spoofed-%d", i), "a.example.com", now))
		if n := len(rl.buckets); n > maxSources {
			t.Fatalf("after %d distinct resolvers: %d buckets, cap %d", i+1, n, maxSources)
		}
	}
	// 1.3 s drained under 30 of the hog's 300 tokens: a bucket that
	// survived the sweeps refills within that many queries, a forgotten one
	// would take 300.
	hog.Now = now
	penalized := false
	for i := 0; i < 30; i++ {
		penalized = rl.Score(hog) > 0 || penalized
	}
	if !penalized {
		t.Fatal("resolver over its limit was forgotten by the sweep")
	}
}

// TestLoyaltyBounded: a flood of distinct sources answered while the filter
// learns cannot grow the loyalty set past its cap, a resolver learned before
// the flood keeps its standing, and once the flood has passed Retention a
// newcomer is learned again.
func TestLoyaltyBounded(t *testing.T) {
	lo := NewLoyalty()
	now := simtime.Time(0)
	lo.ObserveAnswer(q("incumbent", "a.example.com", now), false)
	for i := 0; i < 2*maxSources; i++ {
		now += 10 * simtime.Microsecond
		lo.ObserveAnswer(q(fmt.Sprintf("spoofed-%d", i), "a.example.com", now), false)
		if n := lo.Len(); n > maxSources {
			t.Fatalf("after %d distinct resolvers: %d learned, cap %d", i+1, n, maxSources)
		}
	}
	if !lo.Known("incumbent", now) {
		t.Fatal("the flood pushed out a resolver learned before it")
	}
	later := now + lo.Retention + 1
	lo.Observe("newcomer", later)
	if !lo.Known("newcomer", later) || lo.Len() != 1 {
		t.Fatalf("after Retention: newcomer known %v, %d learned; want true, 1", lo.Known("newcomer", later), lo.Len())
	}
}

func TestFiltersConcurrencySafety(t *testing.T) {
	zi, zn := newFakeZone()
	nx := NewNXDomain(zi, PerHotZone)
	nx.Threshold = 5
	rl := NewRateLimit()
	al := NewAllowlist()
	al.SetActive(true)
	lo := NewLoyalty()
	lo.SetActive(true)
	hc := NewHopCount()
	hc.SetActive(true)
	p := NewPipeline(rl, al, nx, lo, hc)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				res := fmt.Sprintf("r%d", i%64)
				query := q(res, fmt.Sprintf("h%d.example.com", i%100), simtime.Time(i)*simtime.Millisecond)
				query.Zone = zn
				p.Score(query)
				if i%3 == 0 {
					p.ObserveAnswer(query, i%5 == 0)
					rl.Learn(res, float64(1+i%50))
					hc.Learn(res, 40+i%20)
					al.Add(res)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHopCountBounded: learning twice the cap in distinct resolvers leaves
// the table at the cap, and a resolver learned before them is still scored.
func TestHopCountBounded(t *testing.T) {
	hc := NewHopCount()
	hc.SetActive(true)
	hc.Learn("incumbent", 56)
	for i := 0; i < 2*maxSources; i++ {
		hc.Learn(fmt.Sprintf("spoofed-%d", i), 40)
		if n := len(hc.expected); n > maxSources {
			t.Fatalf("after %d distinct resolvers: %d learned, cap %d", i+1, n, maxSources)
		}
	}
	probe := q("incumbent", "a.example.com", 0)
	probe.IPTTL = 40
	if hc.Score(probe) != PenaltyHopCount {
		t.Fatal("the flood pushed out a resolver learned before it")
	}
	hc.Learn("incumbent", 40) // a known resolver's TTL still updates
	if hc.Score(probe) != 0 {
		t.Fatal("a full table did not update a resolver it holds")
	}
}

// TestNXDomainHotWhileScoring: scorers run against a zone while observers
// push it across the threshold. A Score that starts once the zone is hot
// penalizes an impossible name, and the hot zone keeps no window count.
func TestNXDomainHotWhileScoring(t *testing.T) {
	zi, zn := newFakeZone()
	f := NewNXDomain(zi, PerHotZone)
	f.Threshold = 2000
	const observers, scorers = 4, 4
	var wg sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < f.Threshold; i++ {
				f.ObserveResponse(zn, true, 0)
			}
		}()
	}
	var late atomic.Int64 // Scores that started after the transition
	errs := make(chan string, scorers)
	var sg sync.WaitGroup
	for g := 0; g < scorers; g++ {
		sg.Add(1)
		go func(g int) {
			defer sg.Done()
			for i := 0; !done.Load() || i < 100; i++ {
				attack := q("r1", fmt.Sprintf("x%d-%d.example.com", g, i), 0)
				attack.Zone = zn
				hot := f.isHot(zn)
				if s := f.Score(attack); hot {
					late.Add(1)
					if s != PenaltyNXDomain {
						errs <- fmt.Sprintf("a Score started on a hot zone returned %v", s)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	done.Store(true)
	sg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hot := f.HotZones(); len(hot) != 1 || hot[0] != zn {
		t.Fatalf("HotZones = %v, want [%v]", hot, zn)
	}
	if late.Load() == 0 {
		t.Fatal("no Score ran after the transition")
	}
	if len(f.counts) != 0 {
		t.Errorf("a hot zone kept its window: %v", f.counts)
	}
}
