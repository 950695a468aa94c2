package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when the
// harness re-executes itself as the server child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		runChild()
		return
	}
	os.Exit(m.Run())
}

// tinyOpts shrinks every size so the whole harness runs in a few seconds.
// Tier shares are properties of the full-size corpus and are not asserted
// here; `go run ./bench -check` does that.
func tinyOpts(t *testing.T, trace bool) runOpts {
	spanFile = filepath.Join(t.TempDir(), "spans.jsonl")
	return runOpts{
		seed: 7, window: 300 * time.Millisecond, trace: trace,
		zones: 300, streamN: 1 << 12, warmup: 100 * time.Millisecond,
		replayN: 4096, ctlRounds: 3,
		// A race-instrumented child is several times slower; keep the
		// attack at a rate even that one can drain.
		flood: 5,
	}
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: harness emits %v, BENCHMARK.json lists %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: harness emits %v, BENCHMARK.json lists %v", what, got, want)
			return
		}
	}
}

// TestHarness drives every workload over real sockets against a child
// process with tiny windows: every response must match its oracle, nothing
// may time out, and the metric names must be exactly BENCHMARK.json's.
func TestHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var defined []string
	for i := range workloads {
		defined = append(defined, workloads[i].name)
	}
	sort.Strings(defined)
	sameNames(t, "workloads", defined, names(spec.Workloads))

	for i := range workloads {
		def := &workloads[i]
		// The workloads with side traffic carry the pipeline and
		// control-plane replays, so they take the traced run; the plain
		// ones take the end-to-end run.
		trace := def.flood || def.churn
		t.Run(def.name, func(t *testing.T) {
			r, err := runWorkload(def, tinyOpts(t, trace))
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.wrong != 0 || r.failed != 0 {
				t.Errorf("attempted=%d wrong=%d failed=%d notes=%v", r.attempted, r.wrong, r.failed, r.notes)
			}
			if trace {
				sameNames(t, "per_layer", sortedKeys(r.metrics), names(spec.PerLayer))
				if fi, err := os.Stat(spanFile); err != nil || fi.Size() == 0 {
					t.Errorf("no spans written to %s: %v", spanFile, err)
				}
			} else {
				sameNames(t, "end_to_end", sortedKeys(r.metrics), names(spec.EndToEnd))
			}
		})
	}
}

// TestSeedPlumbing: the same seed gives byte-identical zones and query
// order, a different seed does not.
func TestSeedPlumbing(t *testing.T) {
	build := func(seed int64) (string, []byte) {
		c := buildCorpus(seed, 200)
		streams := []*querySet{
			hotHitsQueries(c, seed, 2000), missMixQueries(c, seed, 2000),
			legitQueries(c, seed, 2000), floodQueries(c, seed, 2000),
		}
		return c.sum(streams...), streams[1].arena
	}
	sumA, arenaA := build(1)
	sumB, arenaB := build(1)
	sumC, _ := build(2)
	if sumA != sumB || string(arenaA) != string(arenaB) {
		t.Errorf("seed 1 twice: corpus_sha %s vs %s", sumA, sumB)
	}
	if sumA == sumC {
		t.Errorf("seeds 1 and 2 share corpus_sha %s", sumA)
	}
}

// TestOracleRejects: the response check must actually discriminate.
func TestOracleRejects(t *testing.T) {
	c := buildCorpus(3, 40)
	qs := hotHitsQueries(c, 3, 1)
	e := qs.exp[0]
	q := qs.wire(0)
	// A minimal well-formed answer: header, echoed question, one RR with
	// a compressed owner.
	qend, _ := skipName(q, 12)
	resp := append([]byte{q[0], q[1], 0x84, 0, 0, 1, 0, 1, 0, 0, 0, 0}, q[12:qend+4]...)
	rtype := byte(typeA)
	if e.rdlen == 16 {
		rtype = typeAAAA
	}
	resp = append(resp, 0xC0, 12, 0, rtype, 0, 1, 0, 0, 1, 44, 0, e.rdlen)
	resp = append(resp, e.rdata[:e.rdlen]...)
	if bad := checkResponse(c.zones, resp, &e); bad != "" {
		t.Fatalf("correct response rejected: %s", bad)
	}
	resp[len(resp)-1] ^= 1
	if checkResponse(c.zones, resp, &e) == "" {
		t.Error("wrong rdata accepted")
	}
	resp[len(resp)-1] ^= 1
	resp[3] = rcodeNXDomain
	if checkResponse(c.zones, resp, &e) == "" {
		t.Error("wrong rcode accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
