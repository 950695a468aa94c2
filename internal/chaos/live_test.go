package chaos

import "testing"

// TestLiveServerDrill runs the query-of-death drill against the real socket
// server: containment, self-suspension, and recovery must all hold, and the
// counters must show the drill actually exercised each mechanism.
func TestLiveServerDrill(t *testing.T) {
	res, err := RunLive(LiveConfig{})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if *chaosLog {
		t.Logf("event log:\n%s", res.Log)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if t.Failed() {
		t.Logf("event log:\n%s", res.Log)
	}
	if res.Panics == 0 {
		t.Error("drill contained no panics")
	}
	if res.Refused == 0 {
		t.Error("quarantine refused nothing")
	}
	if res.Quarantined < 2 {
		t.Errorf("quarantined = %d signatures, want at least the poison and one storm entry", res.Quarantined)
	}
	if res.Suspensions == 0 {
		t.Error("the agent never suspended the server")
	}
}
