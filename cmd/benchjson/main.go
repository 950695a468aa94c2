// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark results can be committed and diffed
// (`make bench-json` > BENCH_netserve.json).
//
//	go test -run='^$' -bench=BenchmarkNetServe -benchmem . | benchjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds a benchmark's own b.ReportMetric values by unit
	// ("B/zone", "objects/zone") and SetBytes throughput ("MB/s").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	assertZeroAlloc := flag.String("assert-zero-alloc", "",
		"regexp over (trimmed) benchmark names that must report 0 allocs/op; exits 1 on any allocation or if nothing matches")
	flag.Parse()
	var doc Doc
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		// Expect: Name[-P] iterations ns ns/op [B B/op allocs allocs/op].
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		r := Result{Procs: 1}
		r.Name = f[0]
		if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
			if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				r.Procs = p
				r.Name = r.Name[:i]
			}
		}
		r.Name = strings.TrimPrefix(r.Name, "Benchmark")
		var err error
		if r.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		if r.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil || f[3] != "ns/op" {
			continue
		}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch unit := f[i+1]; unit {
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// Allocation regression guard: the zero-alloc hot paths are a pinned
	// property, not a best effort. Matching benchmarks that allocate — or a
	// pattern matching nothing (renamed benchmarks would silently disarm
	// the guard) — fail the run after the JSON is emitted.
	if *assertZeroAlloc != "" {
		re, err := regexp.Compile(*assertZeroAlloc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -assert-zero-alloc:", err)
			os.Exit(1)
		}
		matched, bad := 0, 0
		for _, r := range doc.Benchmarks {
			if !re.MatchString(r.Name) {
				continue
			}
			matched++
			if r.AllocsPerOp > 0 {
				bad++
				fmt.Fprintf(os.Stderr, "benchjson: %s allocates: %d allocs/op (%d B/op)\n",
					r.Name, r.AllocsPerOp, r.BytesPerOp)
			}
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: -assert-zero-alloc %q matched no benchmarks\n", *assertZeroAlloc)
			os.Exit(1)
		}
		if bad > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: zero-alloc guard ok (%d benchmarks)\n", matched)
	}
}
