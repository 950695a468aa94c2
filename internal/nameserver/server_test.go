package nameserver

import (
	"fmt"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/pubsub"
	"akamaidns/internal/queue"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

func newTestServer(t *testing.T, cfg Config) (*simtime.Scheduler, *Server) {
	t.Helper()
	sched := simtime.NewScheduler()
	eng := NewEngine(testStore(t))
	srv := NewServer(sched, cfg, eng, nil)
	return sched, srv
}

func mkReq(resolver, qname string, legit bool, onResp func(simtime.Time, *dnswire.Message)) *Request {
	return &Request{
		Resolver: resolver,
		IPTTL:    56,
		Msg:      dnswire.NewQuery(1, dnswire.MustName(qname), dnswire.TypeA),
		Legit:    legit,
		Respond:  onResp,
	}
}

func TestServerAnswersWithinCapacity(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.ComputeQPS = 1000
	sched, srv := newTestServer(t, cfg)
	answered := 0
	for i := 0; i < 100; i++ {
		i := i
		sched.At(simtime.Time(i)*10*simtime.Millisecond, func(now simtime.Time) {
			srv.Receive(now, mkReq("r1", "www.ex.com", true, func(simtime.Time, *dnswire.Message) {
				answered++
			}))
		})
	}
	sched.Run()
	if answered != 100 {
		t.Fatalf("answered %d/100", answered)
	}
	m := srv.Snapshot()
	if m.Received != 100 || m.Answered != 100 || m.AnsweredLegit != 100 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestServerComputeSaturation(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.ComputeQPS = 100 // can answer 100/sec
	cfg.IOQPS = 1e9
	sched, srv := newTestServer(t, cfg)
	ladder := queue.DefaultConfig()
	ladder.Capacity = 50
	srv.queues = queue.MustNew(ladder)
	answered := 0
	// Offer 1000 queries over one second: only ~100 can be served, rest
	// tail-drop once queues fill.
	for i := 0; i < 1000; i++ {
		i := i
		sched.At(simtime.Time(i)*simtime.Millisecond, func(now simtime.Time) {
			srv.Receive(now, mkReq("r1", "www.ex.com", true, func(simtime.Time, *dnswire.Message) {
				answered++
			}))
		})
	}
	sched.RunFor(10 * time.Second)
	m := srv.Snapshot()
	if m.TailDropped == 0 {
		t.Fatalf("no tail drops under 10x overload: %+v", m)
	}
	// ~100 served during the offered second plus the ~50-deep queue
	// backlog drained afterwards.
	if answered < 120 || answered > 300 {
		t.Fatalf("answered %d, want ~150 (capacity-bound)", answered)
	}
}

func TestServerIODrop(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.IOQPS = 100
	cfg.IOBurst = 0.1 // bucket of 10
	sched, srv := newTestServer(t, cfg)
	// 1000 arrivals in one instant: bucket admits ~10.
	for i := 0; i < 1000; i++ {
		srv.Receive(sched.Now(), mkReq("r1", "www.ex.com", true, nil))
	}
	m := srv.Snapshot()
	if m.IODropped < 900 {
		t.Fatalf("IODropped = %d, want ~990", m.IODropped)
	}
}

func TestServerScoringDiscards(t *testing.T) {
	al := filters.NewAllowlist()
	al.SetActive(true)
	lo := filters.NewLoyalty()
	lo.SetActive(true)
	hc := filters.NewHopCount()
	hc.SetActive(true)
	hc.Learn("spoofer", 40)
	rl := filters.NewRateLimit()
	rl.Learn("spoofer", 0.0001)
	pipe := filters.NewPipeline(rl, al, hc, lo)
	sched := simtime.NewScheduler()
	srv := NewServer(sched, DefaultConfig("m1"), NewEngine(testStore(t)), pipe)
	// rate(40)+allow(30)+hop(50)+loyal(20) = 140 >= Smax 100.
	srv.queues = queue.MustNew(queue.Config{MaxScores: []float64{0, 99}, Smax: 100, Capacity: 4096})
	req := mkReq("spoofer", "www.ex.com", false, nil)
	req.IPTTL = 10 // far from learned 40
	// Two queries: the second trips the rate limiter (limit ~0) and with
	// hopcount+allowlist exceeds Smax.
	srv.Receive(0, req)
	srv.Receive(0, mkReqTTL("spoofer", "www.ex.com", 10))
	sched.Run()
	m := srv.Snapshot()
	if m.Discarded == 0 {
		t.Fatalf("no discards: %+v", m)
	}
}

func mkReqTTL(resolver, qname string, ttl int) *Request {
	r := mkReq(resolver, qname, false, nil)
	r.IPTTL = ttl
	return r
}

func TestServerSuspension(t *testing.T) {
	cfg := DefaultConfig("m1")
	sched, srv := newTestServer(t, cfg)
	var transitions []bool
	srv.OnSuspendChange = func(_ simtime.Time, s bool) { transitions = append(transitions, s) }
	srv.SetSuspended(0, true)
	srv.SetSuspended(0, true) // no duplicate event
	srv.Receive(0, mkReq("r1", "www.ex.com", true, nil))
	sched.Run()
	if srv.Snapshot().Received != 0 {
		t.Fatal("suspended server accepted a query")
	}
	srv.SetSuspended(0, false)
	srv.Receive(0, mkReq("r1", "www.ex.com", true, nil))
	sched.Run()
	if srv.Snapshot().Answered != 1 {
		t.Fatal("resumed server did not answer")
	}
	if len(transitions) != 2 || transitions[0] != true || transitions[1] != false {
		t.Fatalf("transitions = %v", transitions)
	}
	if srv.Snapshot().Suspensions != 1 {
		t.Fatalf("Suspensions = %d", srv.Snapshot().Suspensions)
	}
}

func TestServerStaleness(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.StaleAfter = 10 * time.Second
	sched, srv := newTestServer(t, cfg)
	srv.RecordInput("mapping", 0)
	if srv.CheckStaleness(5 * simtime.Second) {
		t.Fatal("fresh input flagged stale")
	}
	if !srv.CheckStaleness(holdTime(11)) {
		t.Fatal("stale input not flagged")
	}
	if !srv.Suspended() {
		t.Fatal("staleness did not suspend")
	}
	if age, ok := srv.InputAge("mapping", holdTime(11)); !ok || age != 11*time.Second {
		t.Fatalf("InputAge = %v/%v", age, ok)
	}
	_ = sched
}

func holdTime(sec int) simtime.Time { return simtime.Time(sec) * simtime.Second }

func TestServerInputDelayedNeverStaleSuspends(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.StaleAfter = 10 * time.Second
	cfg.NoStalenessSuspend = true
	_, srv := newTestServer(t, cfg)
	srv.RecordInput("mapping", 0)
	if srv.CheckStaleness(holdTime(3600)) {
		t.Fatal("input-delayed server self-suspended on staleness")
	}
	if srv.Suspended() {
		t.Fatal("suspended")
	}
}

// TestServerQoDCrashAndFirewall: a crash quarantines the minimized
// signature of its query — the crashing name under any type and flags, the
// engine's trap firing on the marker anywhere in the name — for TQoD; then
// one probe is let through, and a probe that crashes again is held for
// 2×TQoD.
func TestServerQoDCrashAndFirewall(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.QoDFirewall = true
	sched, srv := newTestServer(t, cfg)
	var crashSigs []string
	srv.OnCrash = func(_ simtime.Time, sig string) { crashSigs = append(crashSigs, sig) }
	send := func(qname string, qtype dnswire.Type) (answered bool) {
		t.Helper()
		req := mkReq("attacker", qname, false, func(simtime.Time, *dnswire.Message) { answered = true })
		req.Msg.Questions[0].Type = qtype
		srv.Receive(sched.Now(), req)
		sched.Run()
		return answered
	}
	want := func(step string, crashes, blocked uint64) {
		t.Helper()
		if m := srv.Snapshot(); m.Crashes != crashes || m.QoDBlocked != blocked {
			t.Fatalf("%s: crashes %d blocked %d, want %d and %d", step, m.Crashes, m.QoDBlocked, crashes, blocked)
		}
	}
	evil := dnswire.QoDMarkerLabel + ".ex.com"
	send(evil, dnswire.TypeA)
	want("first trap query", 1, 0)
	if len(crashSigs) != 1 || crashSigs[0] != evil+"." {
		t.Fatalf("crash signatures %q", crashSigs)
	}
	// The same name under another type is blocked.
	send(evil, dnswire.TypeTXT)
	want("same name, other type", 1, 1)
	// A different trap name is a signature of its own: one crash, then
	// blocked.
	other := "x" + dnswire.QoDMarkerLabel + "y.ex.com"
	send(other, dnswire.TypeA)
	want("other trap name", 2, 1)
	send(other, dnswire.TypeA)
	want("other trap name again", 2, 2)
	// Dissimilar names are still answered.
	if !send("www.ex.com", dnswire.TypeA) {
		t.Fatal("dissimilar query not answered during QoD containment")
	}
	// After TQoD one probe is let through; it crashes again, and the entry
	// is re-struck for 2×TQoD.
	sched.RunUntil(sched.Now().Add(TQoD + time.Second))
	send(evil, dnswire.TypeA)
	want("probation probe", 3, 2)
	struck := sched.Now()
	sched.RunUntil(struck.Add(2*TQoD - time.Second))
	send(evil, dnswire.TypeA)
	want("inside 2×TQoD", 3, 3)
	sched.RunUntil(struck.Add(2*TQoD + time.Second))
	send(evil, dnswire.TypeA)
	want("after 2×TQoD", 4, 3)
	if snap := srv.Quarantine().Snapshot(); len(snap) != 2 || snap[0].Strikes != 2 || snap[1].Strikes != 0 {
		t.Fatalf("quarantine %+v", snap)
	}
}

// TestServerQoDProbationAcquits: a signature whose probe is answered
// cleanly — a false positive — is dropped from the quarantine.
func TestServerQoDProbationAcquits(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.QoDFirewall = true
	sched, srv := newTestServer(t, cfg)
	req := mkReq("r1", "www.ex.com", true, nil)
	srv.Quarantine().Add(ExactSignature(n("www.ex.com").AppendWire(nil), dnswire.TypeA, qodFlags(req.Msg)), qodEpoch)
	srv.Receive(0, req)
	sched.Run()
	if m := srv.Snapshot(); m.QoDBlocked != 1 || m.Answered != 0 {
		t.Fatalf("quarantined name: %+v", m)
	}
	answered := false
	sched.RunUntil(sched.Now().Add(TQoD + time.Second))
	srv.Receive(sched.Now(), mkReq("r1", "www.ex.com", true, func(simtime.Time, *dnswire.Message) { answered = true }))
	sched.Run()
	if !answered || srv.Quarantine().Len() != 0 {
		t.Fatalf("probe answered %v, quarantine %+v", answered, srv.Quarantine().Snapshot())
	}
}

func TestServerQoDWithoutFirewallKeepsCrashing(t *testing.T) {
	cfg := DefaultConfig("m1")
	cfg.QoDFirewall = false
	sched, srv := newTestServer(t, cfg)
	evil := dnswire.QoDMarkerLabel + ".ex.com"
	for i := 0; i < 5; i++ {
		srv.Receive(sched.Now(), mkReq("attacker", evil, false, nil))
		sched.Run()
	}
	if got := srv.Snapshot().Crashes; got != 5 {
		t.Fatalf("crashes = %d, want 5 (no containment)", got)
	}
}

// TestServerFeedsPipeline: the server's only wiring to its filters is the
// pipeline. The answers it sends make a zone hot and its resolvers loyal,
// and a name a later zone version adds is never penalized.
func TestServerFeedsPipeline(t *testing.T) {
	sched := simtime.NewScheduler()
	store := testStore(t)
	nx := filters.NewNXDomain(StoreZoneInfo{Store: store}, filters.PerHotZone)
	nx.Threshold = 5
	lo := filters.NewLoyalty()
	srv := NewServer(sched, DefaultConfig("m1"), NewEngine(store), filters.NewPipeline(nx, lo))
	// Drive 10 random-subdomain queries; after 5 NXDOMAIN responses the
	// zone is hot and later garbage is penalized.
	for i := 0; i < 10; i++ {
		srv.Receive(sched.Now(), mkReq("r1", fmt.Sprintf("junk%d.ex.com", i), false, nil))
		sched.Run()
	}
	if hot := nx.HotZones(); len(hot) != 1 || hot[0] != n("ex.com") {
		t.Fatalf("hot zones = %v", hot)
	}
	if got := nx.Flagged.Load(); got != 5 {
		t.Fatalf("flagged %d of the 5 queries after activation", got)
	}
	if !lo.Known("r1", sched.Now()) {
		t.Fatal("loyalty did not learn an answered resolver")
	}
	store.Put(zone.MustParseMaster(testZone+"fresh IN A 192.0.2.9\n", n("ex.com")))
	answered := false
	srv.Receive(sched.Now(), mkReq("r1", "fresh.ex.com", true, func(_ simtime.Time, resp *dnswire.Message) {
		answered = resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 1
	}))
	sched.Run()
	if !answered {
		t.Fatal("name added after the zone went hot was not answered")
	}
	if got := nx.Flagged.Load(); got != 5 {
		t.Fatalf("name added after the zone went hot was penalized (flagged %d)", got)
	}
}

func TestServerUseFIFO(t *testing.T) {
	cfg := DefaultConfig("m1")
	sched, srv := newTestServer(t, cfg)
	srv.UseFIFO()
	answered := false
	srv.Receive(0, mkReq("r1", "www.ex.com", true, func(simtime.Time, *dnswire.Message) { answered = true }))
	sched.Run()
	if !answered {
		t.Fatal("FIFO-mode server did not answer")
	}
}

func TestServerRecordInputFromBus(t *testing.T) {
	sched := simtime.NewScheduler()
	store := testStore(t)
	srv := NewServer(sched, DefaultConfig("m1"), NewEngine(store), nil)
	bus := pubsub.NewBus(sched)
	bus.Subscribe("mapping", 100*time.Millisecond, func(now simtime.Time, m pubsub.Message) {
		srv.RecordInput(m.Topic, now)
	})
	bus.Publish("mapping", "update-1")
	sched.Run()
	if age, ok := srv.InputAge("mapping", sched.Now()); !ok || age != 0 {
		t.Fatalf("InputAge = %v/%v", age, ok)
	}
}
