// Command chaos runs the deterministic fault-injection harness outside the
// test binary, for long soaks over many seeds and scenarios:
//
//	go run ./cmd/chaos -scenarios all -seeds 1:50
//	go run ./cmd/chaos -scenarios mixed -seed 1337 -log
//	go run ./cmd/chaos -live
//
// -live skips the simulation and runs the query-of-death drill against the
// real socket server (containment, self-suspension, recovery) on the wall
// clock.
//
// Any invariant violation prints its reproducer (a go test invocation
// pinning scenario + seed) and the process exits nonzero, so the soak is
// CI-friendly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"akamaidns/internal/chaos"
	"akamaidns/internal/obs"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "single seed to run")
		seeds     = flag.String("seeds", "", "inclusive seed range lo:hi (overrides -seed)")
		scenarios = flag.String("scenarios", "all", "comma-separated scenarios, or 'all'")
		window    = flag.Duration("window", 0, "fault window override (default 2m)")
		dump      = flag.Bool("log", false, "print the full event log of every run")
		quiet     = flag.Bool("quiet", false, "only print failures and the final tally")
		live      = flag.Bool("live", false, "run the query-of-death drill against the real socket server instead of the simulation")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("chaos"))
		return
	}

	if *live {
		res, err := chaos.RunLive()
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(2)
		}
		if *dump || len(res.Violations) > 0 {
			os.Stdout.Write(res.Log)
		}
		if len(res.Violations) > 0 {
			fmt.Printf("FAIL live drill: %d violations\n", len(res.Violations))
			for _, v := range res.Violations {
				fmt.Printf("     %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("ok   live drill: panics=%d refused=%d quarantined=%d suspensions=%d recorded=%d\n",
			res.Panics, res.Refused, res.Quarantined, res.Suspensions, res.Recorded)
		return
	}

	names := chaos.Scenarios()
	if *scenarios != "all" {
		names = strings.Split(*scenarios, ",")
	}
	lo, hi := *seed, *seed
	if *seeds != "" {
		parts := strings.SplitN(*seeds, ":", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "chaos: -seeds wants lo:hi")
			os.Exit(2)
		}
		var err1, err2 error
		lo, err1 = strconv.ParseInt(parts[0], 10, 64)
		hi, err2 = strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil || hi < lo {
			fmt.Fprintln(os.Stderr, "chaos: bad -seeds range")
			os.Exit(2)
		}
	}

	runs, bad := 0, 0
	start := time.Now()
	for s := lo; s <= hi; s++ {
		for _, name := range names {
			cfg := chaos.DefaultConfig()
			cfg.Seed = s
			cfg.Scenario = name
			if *window != 0 {
				cfg.FaultWindow = *window
			}
			res, err := chaos.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				os.Exit(2)
			}
			runs++
			if *dump {
				os.Stdout.Write(res.Log)
			}
			if len(res.Violations) > 0 {
				bad++
			}
			if len(res.Violations) > 0 || !*quiet {
				fmt.Print(res.Lines())
			}
		}
	}
	// The tally carries wall time, so it goes to stderr: stdout is the
	// per-run lines alone, which internal/chaos/testdata/seeds1-5.golden pins
	// for seeds 1..5.
	fmt.Fprintf(os.Stderr, "chaos: %d runs, %d with violations (%.1fs)\n", runs, bad, time.Since(start).Seconds())
	if bad > 0 {
		os.Exit(1)
	}
}
