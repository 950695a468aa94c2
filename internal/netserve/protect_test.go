package netserve

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/monitor"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
)

// TestQueryOfDeathDrill is the end-to-end §4.2/§4.3 drill over real sockets:
// one poison pattern crashes at most one handler per worker before the
// quarantine refuses it, unrelated queries are answered throughout, the
// minimized signature widens to any qtype, and a storm of distinct poison
// patterns fails the storm probe, so the monitoring agent, on the wall
// clock as cmd/authdns runs it, suspends the server (/healthz 503, UDP read
// and discarded) and resumes it once the storm has stopped.
func TestQueryOfDeathDrill(t *testing.T) {
	const workers = 2
	cfg := DefaultConfig()
	cfg.UDPWorkers = workers
	cfg.QuarantineTTL = time.Minute
	srv := startServerCfg(t, cfg, nil)
	acfg := monitor.DefaultAgentConfig("drill")
	acfg.Interval, acfg.FailThreshold, acfg.RecoverThreshold = 100*time.Millisecond, 1, 3
	agent := monitor.NewAgent(propagate.NewWallClock(), acfg, srv, nil)
	agent.AddProbe(srv.StormProbe())
	agent.Start()
	t.Cleanup(agent.Stop)
	ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	healthz := func() int {
		resp, err := http.Get("http://" + ms.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	askWWW := func(id uint16) {
		t.Helper()
		q := dnswire.NewQuery(id, dnswire.MustName("www.ex.test"), dnswire.TypeA)
		resp, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second)
		if err != nil {
			t.Fatalf("unrelated query failed: %v", err)
		}
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
			t.Fatalf("unrelated query degraded: %v", resp)
		}
	}

	// Phase 1 — containment. The first poison query crashes its handler
	// (contained: the client just times out); the provisional signature is
	// quarantined synchronously, so the identical retry is REFUSED.
	poison := dnswire.MustName(dnswire.QoDMarkerLabel + ".ex.test")
	if _, err := Exchange(srv.UDPAddrActual(), dnswire.NewQuery(1, poison, dnswire.TypeA), false, 300*time.Millisecond); err == nil {
		t.Fatal("first poison query was answered")
	}
	resp, err := Exchange(srv.UDPAddrActual(), dnswire.NewQuery(2, poison, dnswire.TypeA), false, time.Second)
	if err != nil {
		t.Fatalf("quarantined poison not refused: %v", err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("quarantined poison rcode = %v, want REFUSED", resp.RCode)
	}
	if got := srv.Metrics.Panics.Load(); got == 0 || got > workers {
		t.Fatalf("panics = %d, want 1..%d (at most one crash per worker)", got, workers)
	}
	if srv.Metrics.QoDRefused.Load() == 0 {
		t.Fatal("quarantine refusal not counted")
	}
	askWWW(3)
	if healthz() != http.StatusOK {
		t.Fatal("healthz not OK while contained")
	}

	// The off-path minimizer replays the crash and widens the signature: the
	// qtype pin drops (any qtype of the poison name crashes), so a TXT query
	// for the same name is refused without a fresh crash.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := srv.Quarantine().Snapshot()
		if !srv.minimizing.Load() && len(snap) == 1 && snap[0].QType == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("signature never minimized: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	panicsBefore := srv.Metrics.Panics.Load()
	resp, err = Exchange(srv.UDPAddrActual(), dnswire.NewQuery(4, poison, dnswire.TypeTXT), false, time.Second)
	if err != nil || resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("minimized signature did not cover TXT: resp=%v err=%v", resp, err)
	}
	if srv.Metrics.Panics.Load() != panicsBefore {
		t.Fatal("widened signature cost another crash")
	}

	// Phase 2 — self-suspension. Distinct poison names evade the quarantine
	// (each is a new signature), so one burst of them is a storm of
	// contained panics: the next sweep's probe fails and the agent
	// withdraws the server. /healthz flips to 503 and UDP traffic is read
	// and discarded.
	if agent.Suspensions() != 0 {
		t.Fatal("suspended before the storm")
	}
	firePoison(t, srv, "s", 40)
	deadline = time.Now().Add(5 * time.Second)
	for srv.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("the agent never suspended the server under the panic storm (%d panics)", srv.Metrics.Panics.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if healthz() != http.StatusServiceUnavailable {
		t.Fatal("healthz not 503 while suspended")
	}
	read := srv.Metrics.UDPQueries.Load()
	q := dnswire.NewQuery(6, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), q, false, 50*time.Millisecond); err == nil && !srv.Healthy() {
		t.Fatal("query answered while suspended")
	}
	if srv.Metrics.UDPQueries.Load() == read && !srv.Healthy() {
		t.Fatal("suspended server stopped reading its socket")
	}

	// Phase 3 — recovery. The storm has stopped, so RecoverThreshold
	// passing sweeps later the agent lifts the suspension and service
	// resumes.
	deadline = time.Now().Add(5 * time.Second)
	for !srv.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("server never recovered from suspension")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if healthz() != http.StatusOK {
		t.Fatal("healthz not OK after recovery")
	}
	askWWW(5)
	if agent.Suspensions() != 1 {
		t.Fatalf("agent suspensions = %d, want 1", agent.Suspensions())
	}
}

// firePoison sends n distinct poison queries to srv over one UDP socket
// without waiting for answers (a poison query gets none), and waits until
// the server has read them all.
func firePoison(t *testing.T, srv *Server, tag string, n int) {
	t.Helper()
	conn, err := net.Dial("udp", srv.UDPAddrActual())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	read := srv.Metrics.UDPQueries.Load()
	for i := 0; i < n; i++ {
		name := dnswire.MustName(fmt.Sprintf("%s.%s%d.ex.test", dnswire.QoDMarkerLabel, tag, i))
		wire, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics.UDPQueries.Load() < read+uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d of %d poison queries", srv.Metrics.UDPQueries.Load()-read, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuarantineProbationRestrike exercises the TTL lapse end to end: the
// probationary re-admission probe is let through, crashes again, and the
// signature is re-struck with a longer TTL instead of crashing per query.
func TestQuarantineProbationRestrike(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UDPWorkers = 1
	cfg.QuarantineTTL = 400 * time.Millisecond
	srv := startServerCfg(t, cfg, nil)
	poison := dnswire.MustName(dnswire.QoDMarkerLabel + ".ex.test")
	// Poison is never answered, so a short client timeout keeps each probe
	// well inside the quarantine TTL windows the test steps through.
	ask := func(id uint16) (*dnswire.Message, error) {
		return Exchange(srv.UDPAddrActual(), dnswire.NewQuery(id, poison, dnswire.TypeA), false, 100*time.Millisecond)
	}
	if _, err := ask(1); err == nil {
		t.Fatal("first poison query was answered")
	}
	if resp, err := ask(2); err != nil || resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("not refused while quarantined: resp=%v err=%v", resp, err)
	}
	if got := srv.Metrics.Panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	// Let the TTL lapse: the next matching query is the probation probe. It
	// crashes again, so the acquittal never runs and the entry is re-struck.
	time.Sleep(600 * time.Millisecond)
	if _, err := ask(3); err == nil {
		t.Fatal("probation probe was answered (expected contained crash)")
	}
	if got := srv.Metrics.Panics.Load(); got != 2 {
		t.Fatalf("panics = %d, want 2 (exactly one probation crash)", got)
	}
	if resp, err := ask(4); err != nil || resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("not refused after re-strike: resp=%v err=%v", resp, err)
	}
	if srv.Quarantine().Len() != 1 {
		t.Fatalf("quarantine len = %d, want 1", srv.Quarantine().Len())
	}
	if snap := srv.Quarantine().Snapshot(); snap[0].Strikes == 0 {
		t.Fatalf("entry not re-struck: %+v", snap[0])
	}
}

// TestContainmentPanicStorm hammers the containment machinery from 32
// concurrent clients, each with its own poison signature interleaved with
// legitimate queries — the -race CI pass over the quarantine, journal, and
// recover-boundary paths. Unrelated queries must be answered throughout.
func TestContainmentPanicStorm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UDPWorkers = 4
	cfg.QuarantineTTL = time.Minute
	srv := startServerCfg(t, cfg, nil)
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			poison := dnswire.MustName(fmt.Sprintf("%s.g%d.ex.test", dnswire.QoDMarkerLabel, g))
			for i := 0; i < 8; i++ {
				Exchange(srv.UDPAddrActual(), dnswire.NewQuery(uint16(g*16+i), poison, dnswire.TypeA), false, 150*time.Millisecond)
				q := dnswire.NewQuery(uint16(g*16+i+8), dnswire.MustName("www.ex.test"), dnswire.TypeA)
				resp, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second)
				if err != nil {
					t.Errorf("client %d: legitimate query failed mid-storm: %v", g, err)
					return
				}
				if resp.RCode != dnswire.RCodeNoError {
					t.Errorf("client %d: legitimate query rcode = %v", g, resp.RCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.Metrics.Panics.Load() == 0 {
		t.Fatal("storm produced no contained panics")
	}
	if srv.Quarantine().Len() == 0 {
		t.Fatal("storm quarantined nothing")
	}
	q := dnswire.NewQuery(9999, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if resp, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second); err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("server degraded after storm: resp=%v err=%v", resp, err)
	}
}

// TestDrainGraceful covers the SIGTERM path: Drain flips health, retires the
// listeners, and reports a clean finish when nothing is in flight.
func TestDrainGraceful(t *testing.T) {
	srv := startServer(t, nil)
	askWWW := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), askWWW, false, time.Second); err != nil {
		t.Fatal(err)
	}
	if !srv.Healthy() {
		t.Fatal("healthy=false before drain")
	}
	if !srv.Drain(2 * time.Second) {
		t.Fatal("idle drain not clean")
	}
	if srv.Healthy() {
		t.Fatal("healthy=true after drain")
	}
	if _, err := Exchange(srv.UDPAddrActual(), askWWW, false, 200*time.Millisecond); err == nil {
		t.Fatal("drained server answered a query")
	}
}

// TestDrainForceClose covers the deadline path: a TCP connection parked
// mid-read outlives the grace period and is force-closed, and Drain reports
// the unclean finish instead of hanging.
func TestDrainForceClose(t *testing.T) {
	srv := startServer(t, nil)
	conn, err := net.Dial("tcp", srv.TCPAddrActual())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One served query parks the handler inside the next readFrame (its
	// per-message deadline is the 5s default, far past the drain grace).
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, wire); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if srv.Drain(200 * time.Millisecond) {
		t.Fatal("drain reported clean despite a parked connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("drain took %s, want prompt force-close", elapsed)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := readFrame(conn); err == nil {
		t.Fatal("parked connection not force-closed")
	}
}
