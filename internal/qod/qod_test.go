package qod

import (
	"strings"
	"testing"
	"time"
)

// wireName builds the wire form of a dotted name ("www.ex.test").
func wireName(labels ...string) []byte {
	var out []byte
	for _, l := range labels {
		out = append(out, byte(len(l)))
		out = append(out, l...)
	}
	return append(out, 0)
}

func TestSignatureSuffixMatch(t *testing.T) {
	sig := Signature{Suffix: FoldName(wireName("evil", "ex", "test"))}
	cases := []struct {
		name []byte
		want bool
	}{
		{wireName("evil", "ex", "test"), true},
		{wireName("EVIL", "EX", "TEST"), true}, // 0x20 case folding
		{wireName("sub", "evil", "ex", "test"), true},
		{wireName("deep", "sub", "evil", "ex", "test"), true},
		{wireName("ex", "test"), false}, // shorter than the suffix
		{wireName("devil", "ex", "test"), false},
		{wireName("evil", "ex", "testx"), false},
		// "xevil.ex.test" contains the suffix bytes but not label-aligned:
		// its first label is "xevil", so the suffix must not match.
		{wireName("xevil", "ex", "test"), false},
	}
	for _, c := range cases {
		if got := sig.MatchesName(c.name); got != c.want {
			t.Errorf("MatchesName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSignatureQTypeAndFlags(t *testing.T) {
	name := wireName("evil", "ex", "test")
	sig := Signature{Suffix: FoldName(name), QType: 1, FlagMask: FlagMaskRD, FlagBits: FlagMaskRD}
	if !sig.Matches(name, 1, FlagMaskRD) {
		t.Fatal("exact match refused")
	}
	if sig.Matches(name, 16, FlagMaskRD) {
		t.Fatal("qtype pin ignored")
	}
	if sig.Matches(name, 1, 0) {
		t.Fatal("flag bits ignored")
	}
	wild := Signature{Suffix: FoldName(name)} // qtype 0 = any, mask 0 = any flags
	if !wild.Matches(name, 16, 0x8180) {
		t.Fatal("wildcard signature refused")
	}
}

func TestSignatureCovers(t *testing.T) {
	broad := Signature{Suffix: FoldName(wireName("evil", "ex", "test"))}
	narrow := Signature{
		Suffix:   FoldName(wireName("sub", "evil", "ex", "test")),
		QType:    1,
		FlagMask: FlagMaskRD, FlagBits: 0,
	}
	if !broad.Covers(narrow) {
		t.Fatal("broad signature should cover the narrow one")
	}
	if narrow.Covers(broad) {
		t.Fatal("narrow signature cannot cover the broad one")
	}
}

func TestQuarantineBlockProbationAcquit(t *testing.T) {
	q := NewQuarantine(8, 50*time.Millisecond)
	name := wireName("evil", "ex", "test")
	sig := Signature{Suffix: FoldName(name)}
	now := time.Unix(100, 0)

	if _, oc := q.Check(name, 1, 0, now); oc != Miss {
		t.Fatalf("empty quarantine outcome = %v", oc)
	}
	e, fresh := q.Add(sig, now)
	if !fresh || q.Len() != 1 || q.Admitted() != 1 {
		t.Fatalf("add: fresh=%v len=%d admitted=%d", fresh, q.Len(), q.Admitted())
	}
	if _, oc := q.Check(name, 1, 0, now.Add(10*time.Millisecond)); oc != Blocked {
		t.Fatalf("active signature outcome = %v", oc)
	}
	// TTL lapsed: the next matching query is the re-admission probe.
	pe, oc := q.Check(name, 1, 0, now.Add(time.Second))
	if oc != Probation || pe != e {
		t.Fatalf("post-TTL outcome = %v (entry match %v)", oc, pe == e)
	}
	// Probe completed cleanly: the pattern is released.
	q.Acquit(pe)
	if q.Len() != 0 {
		t.Fatal("acquit did not remove the entry")
	}
	if _, oc := q.Check(name, 1, 0, now.Add(2*time.Second)); oc != Miss {
		t.Fatalf("post-acquit outcome = %v", oc)
	}
}

func TestQuarantineStrikesExtendTTL(t *testing.T) {
	q := NewQuarantine(8, 100*time.Millisecond)
	name := wireName("evil", "ex", "test")
	sig := Signature{Suffix: FoldName(name)}
	now := time.Unix(100, 0)
	q.Add(sig, now)
	// Re-adding (the probe crashed again) strikes: TTL doubles per strike,
	// so at +150ms (past the base TTL) the signature still blocks.
	exact := Signature{Suffix: FoldName(wireName("sub", "evil", "ex", "test")), QType: 1}
	if _, fresh := q.Add(exact, now.Add(50*time.Millisecond)); fresh {
		t.Fatal("covered signature opened a fresh entry")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d after covered add", q.Len())
	}
	if _, oc := q.Check(name, 1, 0, now.Add(150*time.Millisecond)); oc != Blocked {
		t.Fatalf("struck entry outcome = %v, want Blocked", oc)
	}
}

func TestQuarantineReplaceAndBound(t *testing.T) {
	q := NewQuarantine(2, time.Minute)
	now := time.Unix(100, 0)
	exact := Signature{Suffix: FoldName(wireName("x", "evil", "ex", "test")), QType: 1}
	q.Add(exact, now)
	minimal := Signature{Suffix: FoldName(wireName("evil", "ex", "test"))}
	q.Replace(exact, minimal)
	if _, oc := q.Check(wireName("other", "evil", "ex", "test"), 16, 0, now.Add(time.Second)); oc != Blocked {
		t.Fatal("minimized signature does not generalize")
	}
	// Bound: a third distinct signature evicts the earliest-expiring.
	q.Add(Signature{Suffix: FoldName(wireName("a", "test"))}, now.Add(time.Second))
	q.Add(Signature{Suffix: FoldName(wireName("b", "test"))}, now.Add(2*time.Second))
	if q.Len() != 2 {
		t.Fatalf("len = %d, want bounded 2", q.Len())
	}
}

func TestSignatureSuffixString(t *testing.T) {
	sig := Signature{Suffix: FoldName(wireName("QoD", "Ex", "Test"))}
	if got := sig.SuffixString(); got != "qod.ex.test." {
		t.Fatalf("SuffixString = %q", got)
	}
}

func TestJournalRingAndSnapshot(t *testing.T) {
	j := NewJournal(4, 8)
	for i := 0; i < 6; i++ {
		j.Record([]byte{byte(i), 1, 2, 3})
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Newest first: 5, 4, 3, 2.
	for i, want := range []byte{5, 4, 3, 2} {
		if snap[i][0] != want {
			t.Fatalf("snap[%d][0] = %d, want %d", i, snap[i][0], want)
		}
	}
	// Oversized packets are recorded truncated to the slot size.
	j.Record(make([]byte, 100))
	if got := j.Snapshot()[0]; len(got) != 8 {
		t.Fatalf("truncated record len = %d", len(got))
	}
}

// The storm window is the tripwire the socket server's -watchdog agent
// probes each sweep; netserve.TestStormProbeSuspends drives it through the
// agent (suspension, the calm run that resumes, a storm that holds it).

func TestWatchdogPanicTripAndQuietRecovery(t *testing.T) {
	// Counts before the window opens are not the window's.
	w := NewStormWindow(100, 7)
	if err := w.Check(100+StormPanics-1, 7); err != nil {
		t.Fatalf("tripped below threshold: %v", err)
	}
	if err := w.Check(100+2*StormPanics-1, 7); err == nil || !strings.Contains(err.Error(), "5 contained panics") {
		t.Fatalf("panic storm: err = %v, want 5 contained panics", err)
	}
	// A quiet window after the storm passes again; the agent counts these
	// passes toward resuming.
	if err := w.Check(100+2*StormPanics-1, 7); err != nil {
		t.Fatalf("quiet window after the storm: %v", err)
	}
	// A storm after the quiet one trips afresh.
	if err := w.Check(100+3*StormPanics-1, 7); err == nil {
		t.Fatal("second panic storm did not trip")
	}
}

func TestWatchdogWindowRotation(t *testing.T) {
	// A storm's worth of panics split across two windows trips neither.
	w := NewStormWindow(0, 0)
	for i := 1; i <= 2; i++ {
		if err := w.Check(uint64(i)*(StormPanics-1), uint64(i)*(StormMalformed-1)); err != nil {
			t.Fatalf("window %d tripped: %v", i, err)
		}
	}
}

func TestWatchdogMalformed(t *testing.T) {
	w := NewStormWindow(0, 0)
	if err := w.Check(0, StormMalformed-1); err != nil {
		t.Fatalf("tripped below the malformed threshold: %v", err)
	}
	err := w.Check(0, 2*StormMalformed-1)
	if err == nil || !strings.Contains(err.Error(), "50000 undecodable packets") {
		t.Fatalf("malformed storm: err = %v, want 50000 undecodable packets", err)
	}
}

func TestLadderLevels(t *testing.T) {
	l := NewLadder(10)
	var levels []int
	for i := 0; i < 11; i++ {
		levels = append(levels, l.Enter())
	}
	// Occupancy 1..4 → full, 5..8 → degraded (≥50%), 9..10 → clean-only
	// (≥85%), 11 → saturated (> ceiling).
	if levels[0] != LevelFull || levels[3] != LevelFull {
		t.Fatalf("low occupancy levels = %v", levels)
	}
	if levels[4] != LevelDegraded || levels[7] != LevelDegraded {
		t.Fatalf("mid occupancy levels = %v", levels)
	}
	if levels[8] != LevelCleanOnly || levels[9] != LevelCleanOnly {
		t.Fatalf("high occupancy levels = %v", levels)
	}
	if levels[10] != LevelSaturated {
		t.Fatalf("over-ceiling level = %v", levels[10])
	}
	for i := 0; i < 11; i++ {
		l.Exit()
	}
	if l.Inflight() != 0 || l.Level() != LevelFull {
		t.Fatalf("after exits: inflight=%d level=%d", l.Inflight(), l.Level())
	}
	if NewLadder(0) != nil {
		t.Fatal("zero ceiling should disable the ladder")
	}
	for _, lv := range []int{LevelFull, LevelDegraded, LevelCleanOnly, LevelSaturated, 99} {
		if LevelName(lv) == "" {
			t.Fatal("unnamed level")
		}
	}
}
