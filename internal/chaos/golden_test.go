package chaos

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestSeedsGolden pins every scenario's run at seeds 1..5 to the lines
// cmd/chaos prints for it: testdata/seeds1-5.golden is the stdout of
//
//	go run ./cmd/chaos -scenarios all -seeds 1:5 > internal/chaos/testdata/seeds1-5.golden
//
// (the tally, which carries wall time, goes to stderr). Any change to a
// run's events, probes, failures, outages or violations fails here. The
// golden is taken on amd64; on other architectures, where Go may fuse a
// multiply-add and move a float, a difference is logged and only the
// absence of violations is asserted.
func TestSeedsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/seeds1-5.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		for _, name := range Scenarios() {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Scenario = seed, name
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("chaos.Run(%s, seed=%d): %v", name, seed, err)
			}
			if len(res.Violations) > 0 {
				t.Errorf("%s", res.Lines())
			}
			got.WriteString(res.Lines())
		}
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		gl, wl := "<end of output>", "<end of golden>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl == wl {
			continue
		}
		diff := "line " + strconv.Itoa(i+1) + ":\n  got:    " + gl + "\n  golden: " + wl
		if runtime.GOARCH != "amd64" {
			t.Logf("on %s the runs differ from the amd64 golden at %s", runtime.GOARCH, diff)
			return
		}
		t.Fatalf("%s\nregenerate with: go run ./cmd/chaos -scenarios all -seeds 1:5 > internal/chaos/testdata/seeds1-5.golden", diff)
	}
}
