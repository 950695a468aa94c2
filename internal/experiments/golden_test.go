package experiments

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The figure reproductions are seeded simulations, so their rendered
// reports are pinned byte for byte: testdata/all.golden is the stdout of
//
//	go run ./cmd/experiments -fig all > internal/experiments/testdata/all.golden
//
// and regenerating it is how a change that moves a figure shows the move
// in its diff. A rerun in another process that renders other bytes also
// fails here, so the golden holds the figures deterministic too.
//
// The golden is taken on amd64. Go fuses multiply-add into one rounding on
// arm64 (and ppc64le, s390x), so a float there may differ in its last
// digits: elsewhere the comparison is logged, not failed, and only each
// artifact's Pass is asserted.
const goldenArch = "amd64"

// runs caches each artifact's small-scale report, so every test of the
// package shares one run of it.
var runs = make([]struct {
	once sync.Once
	rep  Report
}, len(Artifacts))

// report runs (once) the i-th artifact of Artifacts at small scale.
func report(i int) Report {
	r := &runs[i]
	r.once.Do(func() { r.rep = Artifacts[i].Run(true) })
	return r.rep
}

// reportOf is report by artifact id.
func reportOf(t *testing.T, id string) Report {
	t.Helper()
	for i, a := range Artifacts {
		if a.ID == id {
			return report(i)
		}
	}
	t.Fatalf("no artifact %q", id)
	return Report{}
}

// TestAllGolden renders every artifact as cmd/experiments -fig all prints it
// and compares the result with testdata/all.golden line by line, naming the
// first artifact and line that differ.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i := range Artifacts {
		rep := report(i)
		if !rep.Pass {
			t.Errorf("%s shape mismatch.\npaper:    %s\nmeasured: %s", rep.ID, rep.PaperClaim, rep.Measured)
		}
		got.WriteString(rep.String() + "\n")
	}
	if diff := firstDiff(got.String(), string(want)); diff != "" {
		if runtime.GOARCH != goldenArch {
			t.Logf("on %s, not %s, the rendering differs from the golden: %s", runtime.GOARCH, goldenArch, diff)
			return
		}
		t.Errorf("%s\nregenerate with: go run ./cmd/experiments -fig all > internal/experiments/testdata/all.golden", diff)
	}
}

// assertDeterministic runs an artifact again and checks that the fresh run
// renders exactly as the package's shared run of it did: Measured line,
// every Series row and the shape-match verdict. The golden compares against
// a run in another process; this compares two runs in one, so state that
// leaks between runs (a shared RNG, a package-level cache) shows here.
// Fig8 and Fig10 are the two heaviest users of randomized simulation, so
// they anchor it.
func assertDeterministic(t *testing.T, id string, run func() Report) {
	t.Helper()
	a, b := reportOf(t, id), run()
	if a.Measured != b.Measured {
		t.Errorf("%s: Measured differs between identical runs:\n  first:  %s\n  second: %s",
			id, a.Measured, b.Measured)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%s: series length differs between identical runs: %d vs %d",
			id, len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Errorf("%s: series row %d differs between identical runs:\n  first:  %q\n  second: %q",
				id, i, a.Series[i], b.Series[i])
		}
	}
	if a.Pass != b.Pass {
		t.Errorf("%s: shape-match verdict flipped between identical runs: %v vs %v",
			id, a.Pass, b.Pass)
	}
}

func TestFig8Deterministic(t *testing.T) {
	assertDeterministic(t, "fig8", func() Report { return Fig8Failover(true) })
}

func TestFig10Deterministic(t *testing.T) {
	assertDeterministic(t, "fig10", func() Report { return Fig10NXDomainFilter(true) })
}

// firstDiff describes the first line where got and want differ, with the
// artifact whose report holds it, or returns "" when they are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	artifact := "(none)"
	for i := 0; ; i++ {
		gl, wl := "<end of output>", "<end of golden>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "artifact " + artifact + ", line " + strconv.Itoa(i+1) + ":\n  got:    " + gl + "\n  golden: " + wl
		}
		if id, ok := strings.CutPrefix(wl, "== "); ok {
			artifact, _, _ = strings.Cut(id, ":")
		}
	}
}
