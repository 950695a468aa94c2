package netserve

import (
	"net/http"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
	"akamaidns/internal/qod"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// TestStormProbeSuspends drives the storm probe through a monitoring agent
// on a simulated clock, one sweep a second, against a socketless server
// whose counters the test bumps: a storm is a threshold's worth of panics
// (or undecodable packets) inside one sweep, a storm during a suspension
// holds it, and a calm run of sweeps lifts it.
func TestStormProbeSuspends(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.UDPAddr, cfg.TCPAddr = "", ""
	srv := New(cfg, nameserver.NewEngine(store), nil)
	sched := simtime.NewScheduler()
	acfg := monitor.DefaultAgentConfig("storm")
	acfg.FailThreshold, acfg.RecoverThreshold = 1, 2
	agent := monitor.NewAgent(propagate.SimClock{Sched: sched}, acfg, srv, nil)
	agent.AddProbe(srv.StormProbe())
	agent.Start()
	sweep := func(panics, malformed uint64) {
		srv.Metrics.Panics.Add(panics)
		srv.Metrics.DecodeErrors.Add(malformed)
		sched.RunFor(time.Second)
	}
	healthy := func(want bool, step string) {
		t.Helper()
		if srv.Healthy() != want || srv.Suspended() == want {
			t.Fatalf("%s: healthy=%v suspended=%v, want healthy=%v", step, srv.Healthy(), srv.Suspended(), want)
		}
	}

	sweep(qod.StormPanics-1, qod.StormMalformed-1)
	healthy(true, "below both thresholds")
	sweep(qod.StormPanics-1, 0)
	sweep(qod.StormPanics-1, 0)
	healthy(true, "a storm's worth of panics split across sweeps")
	sweep(qod.StormPanics, 0)
	healthy(false, "panic storm")
	sweep(0, 0)
	healthy(false, "one calm sweep")
	sweep(qod.StormPanics, 0)
	sweep(0, 0)
	healthy(false, "a storm during the suspension restarts the calm run")
	sweep(0, 0)
	healthy(true, "RecoverThreshold calm sweeps")
	sweep(0, qod.StormMalformed)
	healthy(false, "malformed storm")
	sweep(0, 0)
	sweep(0, 0)
	healthy(true, "recovered from the malformed storm")
	if agent.Suspensions() != 2 {
		t.Fatalf("agent suspensions = %d, want 2", agent.Suspensions())
	}
}

// TestSuspensionCapAcrossServers gives three socket servers the same
// contained-panic storm. Their agents share one simulated clock and one
// Coordinator capped at one suspension, so exactly one server withdraws —
// /healthz 503, UDP discarded — while the others keep answering. Once it
// resumes and releases its slot, a second storm may suspend another.
func TestSuspensionCapAcrossServers(t *testing.T) {
	sched := simtime.NewScheduler()
	clock := propagate.SimClock{Sched: sched}
	coord := monitor.NewCoordinator(3, 1)
	var srvs []*Server
	var health []string
	for _, id := range []string{"m0", "m1", "m2"} {
		cfg := DefaultConfig()
		cfg.UDPWorkers = 1
		cfg.TCPAddr = ""
		cfg.QuarantineTTL = time.Minute
		srv := startServerCfg(t, cfg, nil)
		ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ms.Close() })
		acfg := monitor.DefaultAgentConfig(id)
		acfg.FailThreshold, acfg.RecoverThreshold = 1, 2
		agent := monitor.NewAgent(clock, acfg, srv, coord)
		agent.AddProbe(srv.StormProbe())
		agent.Start()
		srvs, health = append(srvs, srv), append(health, ms.Addr())
	}
	// suspended reports which servers are withdrawn, checking each one's
	// /healthz and that a suspended one leaves a query unanswered.
	suspended := func() []int {
		t.Helper()
		var out []int
		for i, srv := range srvs {
			code, _ := scrape(t, health[i], "/healthz")
			q := dnswire.NewQuery(uint16(i), dnswire.MustName("www.ex.test"), dnswire.TypeA)
			_, err := Exchange(srv.UDPAddrActual(), q, false, 100*time.Millisecond)
			switch {
			case srv.Suspended() && code == http.StatusServiceUnavailable && err != nil:
				out = append(out, i)
			case srv.Suspended() || code != http.StatusOK || err != nil:
				t.Fatalf("server %d: suspended=%v healthz=%d query err=%v", i, srv.Suspended(), code, err)
			}
		}
		return out
	}
	// storm fires distinct poison names at srv and waits until its one
	// worker has crashed on each, so the next sweep's probe sees them all.
	storm := func(srv *Server, tag string) {
		t.Helper()
		want := srv.Metrics.Panics.Load() + 2*qod.StormPanics
		firePoison(t, srv, tag, 2*qod.StormPanics)
		for deadline := time.Now().Add(5 * time.Second); srv.Metrics.Panics.Load() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("panics = %d, want %d", srv.Metrics.Panics.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, srv := range srvs {
		storm(srv, "a")
	}
	sched.RunFor(time.Second)
	first := suspended()
	if len(first) != 1 || coord.ActiveSuspensions() != 1 {
		t.Fatalf("suspended %v under a cap of 1 (coordinator holds %d)", first, coord.ActiveSuspensions())
	}
	if coord.Denials < 2 {
		t.Fatalf("coordinator denials = %d, want the other two failing agents denied", coord.Denials)
	}

	// Two calm sweeps: the suspended server resumes and frees the slot.
	sched.RunFor(2 * time.Second)
	if got := suspended(); len(got) != 0 || coord.ActiveSuspensions() != 0 {
		t.Fatalf("after the storm: suspended %v, coordinator holds %d", got, coord.ActiveSuspensions())
	}

	// A second storm on the two that stayed up: one of them takes the slot.
	for i, srv := range srvs {
		if i != first[0] {
			storm(srv, "b")
		}
	}
	sched.RunFor(time.Second)
	second := suspended()
	if len(second) != 1 || second[0] == first[0] {
		t.Fatalf("second storm suspended %v, want one server other than %d", second, first[0])
	}
}
