package experiments

import (
	"strings"
	"testing"
)

// Each experiment must run at small scale and report a shape match with the
// paper. These are the repository's reproduction gates; each reads the one
// run of its artifact that TestAllGolden (golden_test.go) also renders.

func check(t *testing.T, rep Report) {
	t.Helper()
	t.Logf("%s: measured: %s", rep.ID, rep.Measured)
	if !rep.Pass {
		t.Errorf("%s shape mismatch.\npaper:    %s\nmeasured: %s", rep.ID, rep.PaperClaim, rep.Measured)
	}
	if rep.ID == "" || rep.Title == "" || rep.PaperClaim == "" {
		t.Errorf("%s: incomplete report metadata", rep.ID)
	}
}

func TestFig1(t *testing.T)    { check(t, reportOf(t, "fig1")) }
func TestFig2(t *testing.T)    { check(t, reportOf(t, "fig2")) }
func TestFig3(t *testing.T)    { check(t, reportOf(t, "fig3")) }
func TestFig4(t *testing.T)    { check(t, reportOf(t, "fig4")) }
func TestFig9(t *testing.T)    { check(t, reportOf(t, "fig9")) }
func TestFig10(t *testing.T)   { check(t, reportOf(t, "fig10")) }
func TestFig11(t *testing.T)   { check(t, reportOf(t, "fig11")) }
func TestFig12(t *testing.T)   { check(t, reportOf(t, "fig12")) }
func TestTableRT(t *testing.T) { check(t, reportOf(t, "rt")) }
func TestTableConsistency(t *testing.T) {
	check(t, reportOf(t, "consistency"))
}
func TestTableIPTTL(t *testing.T)      { check(t, reportOf(t, "ipttl")) }
func TestTableDelegation(t *testing.T) { check(t, reportOf(t, "delegation")) }
func TestExtPush(t *testing.T)         { check(t, reportOf(t, "push")) }
func TestExtPredict(t *testing.T)      { check(t, reportOf(t, "predict")) }

func TestFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 runs a wide-area BGP simulation")
	}
	check(t, reportOf(t, "fig8"))
}

func TestReportString(t *testing.T) {
	s := TableDelegationCapacity().String()
	for _, want := range []string{"delegation", "paper:", "measured:", "134596"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, s)
		}
	}
}

// TestAllRegistryComplete guards the artifact registry: All() must return
// every paper artifact plus the extensions, each with a unique id that is
// the one Artifacts lists it under.
func TestAllRegistryComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	reps := make([]Report, len(Artifacts))
	for i := range reps {
		reps[i] = report(i)
	}
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "consistency",
		"fig8", "fig9", "fig10", "fig11", "fig12",
		"rt", "ipttl", "delegation", "push", "predict",
	}
	if len(reps) != len(want) {
		t.Fatalf("All returned %d artifacts, want %d", len(reps), len(want))
	}
	seen := map[string]bool{}
	for i, rep := range reps {
		if rep.ID != want[i] || Artifacts[i].ID != want[i] {
			t.Errorf("artifact %d = %s, listed as %s, want %s", i, rep.ID, Artifacts[i].ID, want[i])
		}
		if seen[rep.ID] {
			t.Errorf("duplicate artifact id %s", rep.ID)
		}
		seen[rep.ID] = true
		if !rep.Pass {
			t.Errorf("%s failed shape check: %s", rep.ID, rep.Measured)
		}
	}
}
