// Command benchpair compares two checkouts on the repository benchmark in
// interleaved pairs and prints, per end-to-end metric, one Markdown row per
// workload: the parent's median and quartile spread, the change's median,
// the median per-pair ratio b/a, the wins, and a bootstrap 95 % interval of
// that ratio with its verdict. A last table sums each side's attempted and
// failed queries per workload.
//
//	go run ./cmd/benchpair -a /tmp/parent -b .
//	go run ./cmd/benchpair -a . -b . -workload hot_hits -pairs 4
//
// Workloads, metrics, their directions, the run command and its length all
// come from -a's BENCHMARK.json. Seed s runs -a first when s is odd and -b
// first when it is even, so drift over the session falls on both sides.
// Any run that fails, reports correct=false or lacks a metric stops the
// tool with a non-zero exit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"akamaidns/internal/stats"
)

// contract is the part of BENCHMARK.json the tool reads.
type contract struct {
	Command    []string                `json:"command"`
	RunSeconds float64                 `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
}

// report is the JSON object a benchmark run prints as its last line.
type report struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// resamples is the bootstrap size; the generator is seeded so the same
// runs always print the same interval.
const resamples = 10000

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "parent checkout (its BENCHMARK.json defines the comparison)")
	b := fs.String("b", "", "changed checkout")
	only := fs.String("workload", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "pairs per workload; pair s runs with --seed s")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *b == "" || *pairs < 1 {
		return fmt.Errorf("need -a, -b and -pairs ≥ 1")
	}
	raw, err := os.ReadFile(filepath.Join(*a, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.Command) == 0 {
		return fmt.Errorf("%s's BENCHMARK.json names no command", *a)
	}
	var workloads []string
	for _, w := range c.Workloads {
		workloads = append(workloads, w.Name)
	}
	if *only != "" {
		for _, w := range strings.Split(*only, ",") {
			if !slices.Contains(workloads, w) {
				return fmt.Errorf("workload %q is not in %s's BENCHMARK.json", w, *a)
			}
		}
		workloads = strings.Split(*only, ",")
	}

	// reports[workload][side] holds one report per pair, in seed order.
	reports := map[string]*[2][]*report{}
	for _, w := range workloads {
		reports[w] = new([2][]*report)
		for s := 1; s <= *pairs; s++ {
			order := [2]int{0, 1}
			if s%2 == 0 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				dir := [2]string{*a, *b}[side]
				r, err := runOnce(c, dir, w, s)
				if err != nil {
					return fmt.Errorf("%s seed %d in %s: %w", w, s, dir, err)
				}
				fmt.Fprintf(stderr, "benchpair: %s seed %d %s done\n", w, s, "ab"[side:side+1])
				reports[w][side] = append(reports[w][side], r)
			}
		}
	}

	for _, m := range c.EndToEnd {
		fmt.Fprintf(stdout, "\n**%s** (%s, %s is better; %d pairs)\n\n", m.Name, m.Unit, m.Better, *pairs)
		fmt.Fprintln(stdout, "| workload | a median (IQR) | b median | b/a median | wins b:a | 95 % CI of b/a | verdict |")
		fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|")
		for _, w := range workloads {
			var v [2][]float64
			for side, rs := range reports[w] {
				for _, r := range rs {
					v[side] = append(v[side], r.Metrics[m.Name].Value)
				}
			}
			row := compare(v[0], v[1], m.Better == "higher")
			fmt.Fprintf(stdout, "| %s | %s (%s) | %s | %.3f | %d:%d | [%.3f, %.3f] | %s |\n",
				w, num(row.aMedian), num(row.aIQR), num(row.bMedian), row.ratio,
				row.bWins, row.aWins, row.lo, row.hi, row.verdict)
		}
	}

	fmt.Fprintf(stdout, "\n**queries** (attempted and failed, summed over %d pairs)\n\n", *pairs)
	fmt.Fprintln(stdout, "| workload | a attempted | a failed (share) | b attempted | b failed (share) |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|")
	for _, w := range workloads {
		var cells [2]string
		for side, rs := range reports[w] {
			var attempted, failed uint64
			for _, r := range rs {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
			share := 0.0
			if attempted > 0 {
				share = 100 * float64(failed) / float64(attempted)
			}
			cells[side] = fmt.Sprintf("%d | %d (%.3g %%)", attempted, failed, share)
		}
		fmt.Fprintf(stdout, "| %s | %s | %s |\n", w, cells[0], cells[1])
	}
	return nil
}

// runOnce runs the contract's command in dir and parses its last line,
// which must be a correct report carrying every end-to-end metric.
func runOnce(c contract, dir, workload string, seed int) (*report, error) {
	args := append(c.Command[1:len(c.Command):len(c.Command)], "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.FormatFloat(c.RunSeconds, 'g', -1, 64))
	cmd := exec.Command(c.Command[0], args...)
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, tail(errOut.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last line is not a report: %w", err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("correct=false (attempted=%d failed=%d)", r.Attempted, r.Failed)
	}
	for _, m := range c.EndToEnd {
		if _, ok := r.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("no metric %s", m.Name)
		}
	}
	return &r, nil
}

// row is one metric on one workload, a against b.
type row struct {
	aMedian, aIQR, bMedian float64
	ratio, lo, hi          float64
	aWins, bWins           int
	verdict                string
}

// compare summarises paired values a[i], b[i]. higher says which direction
// of b/a is better; equal values are a tie and count for neither side.
func compare(a, b []float64, higher bool) row {
	var r row
	q1, med, q3 := stats.NewDist(a).Quartiles()
	r.aMedian, r.aIQR = med, q3-q1
	_, r.bMedian, _ = stats.NewDist(b).Quartiles()
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = 1 // a tie, 0/0 included, counts for neither side
		if a[i] != b[i] {
			ratios[i] = b[i] / a[i]
			if b[i] > a[i] == higher {
				r.bWins++
			} else {
				r.aWins++
			}
		}
	}
	r.ratio = median(ratios)
	rng := rand.New(rand.NewPCG(1, 2))
	boot, draw := make([]float64, resamples), make([]float64, len(ratios))
	for i := range boot {
		for j := range draw {
			draw[j] = ratios[rng.IntN(len(ratios))]
		}
		boot[i] = median(draw)
	}
	d := stats.NewDist(boot)
	r.lo, r.hi = d.Percentile(2.5), d.Percentile(97.5)
	switch {
	case r.lo <= 1 && r.hi >= 1:
		r.verdict = fmt.Sprintf("unresolved (width %.3f)", r.hi-r.lo)
	case r.lo > 1 == higher:
		r.verdict = "resolved better"
	default:
		r.verdict = "resolved worse"
	}
	return r
}

func median(v []float64) float64 {
	_, m, _ := stats.NewDist(v).Quartiles()
	return m
}

// num prints a metric value rounded to four significant digits, without
// an exponent.
func num(v float64) string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return strconv.FormatFloat(r, 'f', -1, 64)
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}
