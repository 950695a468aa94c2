package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stub is a bench/run.sh that logs "<tree> <args>" to $BENCHPAIR_LOG,
// prints noise (one line of it a report that would fail the run), then a
// report whose values scale with the seed: answered_qps = QPS*seed and
// latency_p50_us = LAT*seed. The placeholders are filled per tree.
const stub = `#!/usr/bin/env bash
echo "$(basename "$PWD") $*" >> "$BENCHPAIR_LOG"
while [ $# -gt 0 ]; do [ "$1" = --seed ] && seed=$2; shift; done
echo "workload noise line"
echo '{"correct":false,"attempted":1,"failed":1,"metrics":{}}'
echo "  note: more noise"
EXIT
echo "{\"correct\":CORRECT,\"attempted\":100,\"failed\":0,\"metrics\":{\"answered_qps\":{\"value\":$((QPS*seed))},\"latency_p50_us\":{\"value\":$((LAT*seed))}}}"
`

const contractJSON = `{
  "command": ["bash", "bench/run.sh"],
  "run_seconds": 3,
  "workloads": [{"name": "w1"}, {"name": "w2"}],
  "end_to_end": [
    {"name": "answered_qps", "unit": "1/s", "better": "higher"},
    {"name": "latency_p50_us", "unit": "us", "better": "lower"}
  ]
}`

// tree writes a checkout named name under root with a stub bench.
func tree(t *testing.T, root, name string, qps, lat int, correct, exit string) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script := strings.NewReplacer("QPS", fmt.Sprint(qps), "LAT", fmt.Sprint(lat),
		"CORRECT", correct, "EXIT", exit).Replace(stub)
	if err := os.WriteFile(filepath.Join(dir, "bench", "run.sh"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(contractJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// pair runs the tool and returns its stdout, the stub log and the error.
func pair(t *testing.T, args ...string) (string, []string, error) {
	t.Helper()
	log := filepath.Join(t.TempDir(), "log")
	t.Setenv("BENCHPAIR_LOG", log)
	var stdout, stderr strings.Builder
	err := run(args, &stdout, &stderr)
	raw, _ := os.ReadFile(log)
	return stdout.String(), strings.Split(strings.TrimSpace(string(raw)), "\n"), err
}

// rowFor returns the table row for workload w under metric m.
func rowFor(t *testing.T, out, m, w string) string {
	t.Helper()
	_, after, ok := strings.Cut(out, "**"+m+"**")
	if !ok {
		t.Fatalf("no table for %s in:\n%s", m, out)
	}
	for _, line := range strings.Split(after, "\n") {
		if strings.HasPrefix(line, "| "+w+" |") {
			return line
		}
	}
	t.Fatalf("no row for %s in the %s table:\n%s", w, m, out)
	return ""
}

func TestRunOrderAndArguments(t *testing.T) {
	root := t.TempDir()
	a := tree(t, root, "a", 1000, 50, "true", "")
	b := tree(t, root, "b", 1000, 50, "true", "")
	_, log, err := pair(t, "-a", a, "-b", b, "-workload", "w2", "-pairs", "4")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for s := 1; s <= 4; s++ {
		first, second := "a", "b"
		if s%2 == 0 {
			first, second = "b", "a"
		}
		args := fmt.Sprintf("--workload w2 --seed %d --seconds 3", s)
		want = append(want, first+" "+args, second+" "+args)
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Errorf("runs:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

func TestIdenticalTreesAreUnresolved(t *testing.T) {
	a := tree(t, t.TempDir(), "a", 1000, 50, "true", "")
	out, log, err := pair(t, "-a", a, "-b", a)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2*2*10 {
		t.Errorf("%d runs, want 40 (2 workloads × 10 pairs × 2 sides)", len(log))
	}
	for _, m := range []string{"answered_qps", "latency_p50_us"} {
		for _, w := range []string{"w1", "w2"} {
			r := rowFor(t, out, m, w)
			if !strings.Contains(r, "| 1.000 | 0:0 | [1.000, 1.000] | unresolved (width 0.000) |") {
				t.Errorf("%s/%s: %s", m, w, r)
			}
		}
	}
}

func TestConstantRatioIsResolved(t *testing.T) {
	root := t.TempDir()
	a := tree(t, root, "a", 1000, 50, "true", "")
	b := tree(t, root, "b", 800, 40, "true", "")
	out, _, err := pair(t, "-a", a, "-b", b, "-workload", "w1")
	if err != nil {
		t.Fatal(err)
	}
	// b answers fewer queries (higher is better: a wins every pair) and
	// answers them faster (lower is better: b wins every pair).
	if r := rowFor(t, out, "answered_qps", "w1"); !strings.Contains(r, "| 0.800 | 0:10 | [0.800, 0.800] | resolved worse |") {
		t.Errorf("answered_qps: %s", r)
	}
	if r := rowFor(t, out, "latency_p50_us", "w1"); !strings.Contains(r, "| 0.800 | 10:0 | [0.800, 0.800] | resolved better |") {
		t.Errorf("latency_p50_us: %s", r)
	}
	// a's values are 1000·seed for seeds 1..10: median 5500, and the
	// exclusive quartiles 2750 and 8250 are 5500 apart.
	if r := rowFor(t, out, "answered_qps", "w1"); !strings.HasPrefix(r, "| w1 | 5500 (5500) | 4400 |") {
		t.Errorf("answered_qps medians: %s", r)
	}
}

func TestAttemptedAndFailedPrinted(t *testing.T) {
	root := t.TempDir()
	a := tree(t, root, "a", 1000, 50, "true", "")
	b := tree(t, root, "b", 1000, 50, "true", "")
	// b fails 2·seed of its 100 queries: 110 of 1000 over seeds 1..10.
	script := filepath.Join(b, "bench", "run.sh")
	raw, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(script, []byte(strings.Replace(string(raw),
		`\"failed\":0`, `\"failed\":$((2*seed))`, 1)), 0o755); err != nil {
		t.Fatal(err)
	}
	out, _, err := pair(t, "-a", a, "-b", b, "-workload", "w1")
	if err != nil {
		t.Fatal(err)
	}
	if r := rowFor(t, out, "queries", "w1"); r != "| w1 | 1000 | 0 (0 %) | 1000 | 110 (11 %) |" {
		t.Errorf("queries: %s", r)
	}
}

func TestBadRunFails(t *testing.T) {
	root := t.TempDir()
	good := tree(t, root, "good", 1000, 50, "true", "")
	for name, bad := range map[string]string{
		"incorrect": tree(t, root, "incorrect", 1000, 50, "false", ""),
		"exit1":     tree(t, root, "exit1", 1000, 50, "true", "exit 1"),
	} {
		if _, _, err := pair(t, "-a", good, "-b", bad, "-pairs", "1"); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// A report without a metric the contract lists also fails the run.
	if err := os.WriteFile(filepath.Join(good, "BENCHMARK.json"), []byte(strings.Replace(contractJSON,
		`"end_to_end": [`, `"end_to_end": [{"name": "server_rss_mb", "unit": "MB", "better": "lower"},`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair(t, "-a", good, "-b", good, "-pairs", "1"); err == nil || !strings.Contains(err.Error(), "server_rss_mb") {
		t.Errorf("missing metric: err = %v", err)
	}
}
