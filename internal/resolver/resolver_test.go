package resolver

import (
	"math/rand"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

func n(s string) dnswire.Name { return dnswire.MustName(s) }

// engineTransport serves queries from per-server engines with a fixed
// one-way delay, via the scheduler.
type engineTransport struct {
	sched   *simtime.Scheduler
	engines map[string]*nameserver.Engine
	delays  map[string]time.Duration
	// down servers never answer.
	down map[string]bool
	// sent counts per server.
	sent map[string]int
}

func (tr *engineTransport) Send(now simtime.Time, server string, q *dnswire.Message, done func(simtime.Time, *dnswire.Message)) {
	tr.sent[server]++
	if tr.down[server] {
		return
	}
	eng, ok := tr.engines[server]
	if !ok {
		return
	}
	d := tr.delays[server]
	if d == 0 {
		d = 10 * time.Millisecond
	}
	tr.sched.After(2*d, func(t simtime.Time) {
		resp, _, crashed := eng.Answer(q, nameserver.ResolverKey("resolver"))
		if !crashed {
			done(t, resp)
		}
	})
}

// testUniverse: a root-ish zone "test." delegating "ex.test." to one
// authoritative server.
const rootZone = `
$ORIGIN test.
@    IN SOA ns.root host ( 1 3600 600 604800 30 )
@    IN NS ns.root.test.
ns.root IN A 10.0.0.1
ex   IN NS ns1.ex
ex   IN NS ns2.ex
ns1.ex IN A 10.0.1.1
ns2.ex IN A 10.0.1.2
`

const exZone = `
$ORIGIN ex.test.
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
@    IN NS ns2
ns1  IN A 10.0.1.1
ns2  IN A 10.0.1.2
www  300 IN A 192.0.2.1
alias IN CNAME www
nested IN CNAME alias
short 5 IN A 192.0.2.2
`

func buildUniverse(t *testing.T) (*simtime.Scheduler, *engineTransport, []Hint) {
	t.Helper()
	sched := simtime.NewScheduler()
	rootStore := zone.NewStore()
	rootStore.Put(zone.MustParseMaster(rootZone, n("test")))
	exStore := zone.NewStore()
	exStore.Put(zone.MustParseMaster(exZone, n("ex.test")))
	rootEng := nameserver.NewEngine(rootStore)
	exEng := nameserver.NewEngine(exStore)
	tr := &engineTransport{
		sched: sched,
		engines: map[string]*nameserver.Engine{
			"10.0.0.1": rootEng,
			"10.0.1.1": exEng,
			"10.0.1.2": exEng,
		},
		delays: map[string]time.Duration{
			"10.0.0.1": 40 * time.Millisecond,
			"10.0.1.1": 5 * time.Millisecond,
			"10.0.1.2": 60 * time.Millisecond,
		},
		down: map[string]bool{},
		sent: map[string]int{},
	}
	hints := []Hint{{Zone: n("test"), NSName: n("ns.root.test"), Server: "10.0.0.1"}}
	return sched, tr, hints
}

func resolveSync(t *testing.T, sched *simtime.Scheduler, r *Resolver, name string, typ dnswire.Type) Result {
	t.Helper()
	var got *Result
	r.Resolve(sched.Now(), n(name), typ, func(res Result) { got = &res })
	for got == nil && sched.Step() {
	}
	if got == nil {
		t.Fatal("resolution never completed")
	}
	return *got
}

func TestResolveIterative(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	res := resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	if res.Err != nil || res.RCode != dnswire.RCodeNoError {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	// Root consulted once, then the ex server.
	if res.Queries != 2 {
		t.Fatalf("queries = %d, want 2 (root + authoritative)", res.Queries)
	}
}

func TestResolveUsesCache(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	res2 := resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	if res2.Queries != 0 {
		t.Fatalf("second resolution sent %d queries, want 0 (cache)", res2.Queries)
	}
	if res2.Elapsed != 0 {
		t.Fatalf("cache hit took %v", res2.Elapsed)
	}
}

func TestResolveCachedDelegationSkipsRoot(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	rootBefore := tr.sent["10.0.0.1"]
	// Different name in the same zone: the NS set is cached, so only the
	// authoritative server is asked. This is the Two-Tier dynamic (§5.2):
	// resolutions mostly run between resolver and the lowlevels.
	res := resolveSync(t, sched, r, "short.ex.test", dnswire.TypeA)
	if res.Queries != 1 {
		t.Fatalf("queries = %d, want 1", res.Queries)
	}
	if tr.sent["10.0.0.1"] != rootBefore {
		t.Fatal("root consulted despite cached delegation")
	}
}

func TestResolveTTLExpiry(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	resolveSync(t, sched, r, "short.ex.test", dnswire.TypeA) // TTL 5s
	sched.RunFor(10 * time.Second)
	res := resolveSync(t, sched, r, "short.ex.test", dnswire.TypeA)
	if res.Queries == 0 {
		t.Fatal("expired record served from cache")
	}
}

func TestResolveNXDomainCached(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	res := resolveSync(t, sched, r, "nope.ex.test", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", res.RCode)
	}
	res2 := resolveSync(t, sched, r, "nope.ex.test", dnswire.TypeA)
	if res2.Queries != 0 || res2.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("negative cache miss: %+v", res2)
	}
}

func TestResolveNoDataNotNXDomain(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	res := resolveSync(t, sched, r, "www.ex.test", dnswire.TypeAAAA)
	if res.RCode != dnswire.RCodeNoError || len(res.Answers) != 0 {
		t.Fatalf("NODATA = %+v", res)
	}
	res2 := resolveSync(t, sched, r, "www.ex.test", dnswire.TypeAAAA)
	if res2.Queries != 0 || res2.RCode != dnswire.RCodeNoError {
		t.Fatalf("cached NODATA = %+v", res2)
	}
}

func TestResolveCNAMEChain(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	res := resolveSync(t, sched, r, "nested.ex.test", dnswire.TypeA)
	if res.Err != nil || res.RCode != dnswire.RCodeNoError {
		t.Fatalf("res = %+v", res)
	}
	// nested -> alias -> www -> A: 3 records in the answer.
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(res.Answers))
	}
}

func TestResolveRetriesOnTimeout(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	cfg := DefaultConfig("r1")
	r := New(sched, cfg, tr, hints, rand.New(rand.NewSource(3)))
	// First resolution caches the delegation (both ns1 and ns2).
	resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	// Take down ns1; the resolver must fail over to ns2 on timeout.
	tr.down["10.0.1.1"] = true
	sched.RunFor(10 * time.Minute) // expire A cache? TTL 300s -> expire
	res := resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	if res.Err != nil || len(res.Answers) == 0 {
		t.Fatalf("failover resolution: %+v", res)
	}
	if r.Timeouts == 0 {
		t.Fatal("no timeouts recorded")
	}
}

func TestResolveAllServersDownFails(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	tr.down["10.0.0.1"] = true
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	res := resolveSync(t, sched, r, "www.ex.test", dnswire.TypeA)
	if res.Err == nil {
		t.Fatal("resolution succeeded with all servers down")
	}
	if res.Queries != maxRetries {
		t.Fatalf("queries = %d, want maxRetries (%d)", res.Queries, maxRetries)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache()
	rr := &dnswire.A{RRHeader: dnswire.RRHeader{Name: n("a.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 10}}
	c.Put(0, n("a.test"), dnswire.TypeA, []dnswire.RR{rr})
	if got, _, _, ok := c.Get(5*simtime.Second, n("a.test"), dnswire.TypeA); !ok || len(got) != 1 {
		t.Fatal("fresh entry missing")
	}
	if _, _, _, ok := c.Get(11*simtime.Second, n("a.test"), dnswire.TypeA); ok {
		t.Fatal("expired entry served")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
	c.PutNegative(0, n("x.test"), dnswire.TypeA, 30, dnswire.RCodeNXDomain)
	_, neg, rc, ok := c.Get(simtime.Second, n("x.test"), dnswire.TypeA)
	if !ok || !neg || rc != dnswire.RCodeNXDomain {
		t.Fatal("negative entry wrong")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("Flush failed")
	}
}

func TestCacheReturnsCopies(t *testing.T) {
	c := NewCache()
	rr := &dnswire.A{RRHeader: dnswire.RRHeader{Name: n("a.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 100}}
	c.Put(0, n("a.test"), dnswire.TypeA, []dnswire.RR{rr})
	got, _, _, _ := c.Get(0, n("a.test"), dnswire.TypeA)
	got[0].Header().TTL = 1
	again, _, _, _ := c.Get(0, n("a.test"), dnswire.TypeA)
	if again[0].Header().TTL != 100 {
		t.Fatal("cache aliases returned records")
	}
}

func TestCacheMinTTLAcrossSet(t *testing.T) {
	c := NewCache()
	mk := func(ttl uint32) dnswire.RR {
		return &dnswire.A{RRHeader: dnswire.RRHeader{Name: n("a.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl}}
	}
	c.Put(0, n("a.test"), dnswire.TypeA, []dnswire.RR{mk(100), mk(10)})
	if _, _, _, ok := c.Get(50*simtime.Second, n("a.test"), dnswire.TypeA); ok {
		t.Fatal("set outlived its minimum TTL")
	}
}

func TestResolveCachedCNAMEFollowed(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	// First resolution caches alias->www CNAME (TTL 300) and www A (300).
	resolveSync(t, sched, r, "alias.ex.test", dnswire.TypeA)
	// Second: pure cache, following the cached CNAME.
	res := resolveSync(t, sched, r, "alias.ex.test", dnswire.TypeA)
	if res.Queries != 0 || len(res.Answers) == 0 {
		t.Fatalf("cached CNAME path: %+v", res)
	}
}

func TestResolveCachedCNAMELoopBounded(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	// Manufacture a CNAME loop directly in the cache.
	mkCN := func(from, to string) []dnswire.RR {
		return []dnswire.RR{&dnswire.CNAME{
			RRHeader: dnswire.RRHeader{Name: n(from), Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: 300},
			Target:   n(to),
		}}
	}
	r.Cache.Put(0, n("l1.ex.test"), dnswire.TypeCNAME, mkCN("l1.ex.test", "l2.ex.test"))
	r.Cache.Put(0, n("l2.ex.test"), dnswire.TypeCNAME, mkCN("l2.ex.test", "l1.ex.test"))
	var got *Result
	r.Resolve(sched.Now(), n("l1.ex.test"), dnswire.TypeA, func(res Result) { got = &res })
	for got == nil && sched.Step() {
	}
	if got == nil || got.Err == nil {
		t.Fatalf("cached CNAME loop did not error: %+v", got)
	}
}

func TestResolveQtypeCNAMEFromCache(t *testing.T) {
	sched, tr, hints := buildUniverse(t)
	r := New(sched, DefaultConfig("r1"), tr, hints, rand.New(rand.NewSource(1)))
	resolveSync(t, sched, r, "alias.ex.test", dnswire.TypeA)
	// Asking for the CNAME itself must return it, not chase it.
	res := resolveSync(t, sched, r, "alias.ex.test", dnswire.TypeCNAME)
	if res.Queries != 0 || len(res.Answers) != 1 {
		t.Fatalf("qtype CNAME: %+v", res)
	}
	if _, ok := res.Answers[0].(*dnswire.CNAME); !ok {
		t.Fatal("answer not the CNAME record")
	}
}
