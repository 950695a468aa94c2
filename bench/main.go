// Command bench is the repository benchmark: four seeded workloads driven
// over loopback UDP against a server child process, every response checked
// against an oracle, reporting the end-to-end metrics named in
// BENCHMARK.json (or, with -trace 1, the per-layer metrics). See README.md
// in this directory.
//
//	go run ./bench -seed 1 -workload all
//	go run ./bench -seed 1 -workload miss_mix -trace 1
//	go run ./bench -check
//	go run ./bench -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		child    = flag.Bool("child", false, "internal: run as the server child")
		seed     = flag.Int64("seed", 1, "corpus and query-stream seed")
		workload = flag.String("workload", "all", "workload name, or all")
		seconds  = flag.Float64("seconds", 15, "measured window per workload, seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics (counter scrape + in-process traced replay) instead of end-to-end ones")
		traceOut = flag.String("trace-out", "", "file the traced replay writes its spans to (default: under the OS temp dir)")
		check    = flag.Bool("check", false, "run every workload for 1s and exit non-zero on any wrong answer, tier-share or failure-ceiling violation")
		repeat   = flag.Int("repeat", 0, "run the full set K times (seeds seed..seed+K-1) and report the spread of every end-to-end metric against its bound")
	)
	flag.Parse()
	if *child {
		runChild()
		return
	}
	// The generator is at most a sender and a receiver; everything else on
	// the machine belongs to the server child.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// Give the generator and the server disjoint CPUs, so neither is ever
	// waiting for the other's time slice to end.
	if genCPUs, serverCPUs, cpuSplit = splitCPUs(); cpuSplit {
		pinProcess(&genCPUs)
	}
	spanFile = *traceOut

	opts := defaultOpts(*seed, time.Duration(*seconds*float64(time.Second)), *trace != 0)
	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else if d := findWorkload(*workload); d != nil {
		defs = []*workloadDef{d}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	var err error
	switch {
	case *check:
		opts.window = time.Second
		err = runCheck(os.Stdout, defs, opts)
	case *repeat > 0:
		err = runRepeat(os.Stdout, defs, opts, *repeat)
	default:
		err = runOnce(os.Stdout, defs, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the JSON object a run ends its output with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, r *runResult) {
	mode := "end-to-end"
	if r.opts.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "workload %s  seed=%d  window=%s  %s metrics\n", r.def.name, r.opts.seed, r.opts.window, mode)
	fmt.Fprintf(w, "  why:       %s\n", r.def.why)
	fmt.Fprintf(w, "  loop:      %s; server child GOMAXPROCS=UDPWorkers=%d; all traffic is loopback UDP\n", r.def.loop, childWorkers())
	fmt.Fprintf(w, "  corpus:    %d zones, corpus_sha=%s\n", r.def.corpusZones(r.opts), r.corpusSHA)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	var keys []string
	for k := range r.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%d", k, r.samples[k])
	}
	fmt.Fprintf(w, "  samples:  %s\n", sb.String())
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v valid=%v\n", r.attempted, r.failed, r.correct, r.valid)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// runOnce measures each workload once. The last line of output is the
// report object: the single workload's, or a by-name map for several.
func runOnce(w io.Writer, defs []*workloadDef, opts runOpts) error {
	reports := map[string]report{}
	var last report
	for _, d := range defs {
		r, err := runWorkload(d, opts)
		if err != nil {
			return err
		}
		printResult(w, r)
		last = report{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
		reports[d.name] = last
	}
	enc := json.NewEncoder(w)
	if len(defs) == 1 {
		return enc.Encode(last)
	}
	return enc.Encode(reports)
}

// runCheck is the harness self-test: short windows, non-zero exit on any
// incorrect run.
func runCheck(w io.Writer, defs []*workloadDef, opts runOpts) error {
	var bad []string
	for _, d := range defs {
		r, err := runWorkload(d, opts)
		if err != nil {
			return err
		}
		printResult(w, r)
		if !r.correct {
			bad = append(bad, d.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("check failed: %s", strings.Join(bad, ", "))
	}
	fmt.Fprintln(w, "check ok")
	return nil
}
