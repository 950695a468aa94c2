// Command experiments regenerates the paper's figures and in-text tables
// on the simulated substrates and prints the series each figure plots.
//
// Usage:
//
//	experiments -fig all            # every artifact, laptop scale
//	experiments -fig fig8           # one artifact
//	experiments -fig fig11 -scale large
//
// Artifact ids: fig1 fig2 fig3 fig4 consistency fig8 fig9 fig10 fig11
// fig12 rt ipttl delegation push predict.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"akamaidns/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "artifact id to regenerate, or 'all'")
	scale := flag.String("scale", "small", "'small' (laptop) or 'large' (paper-sized populations)")
	flag.Parse()

	if *fig == "all" {
		ok := true
		for _, rep := range experiments.All(*scale) {
			fmt.Println(rep)
			if !rep.Pass {
				ok = false
			}
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "one or more artifacts did not match the paper's shape")
			os.Exit(1)
		}
		return
	}
	i := slices.IndexFunc(experiments.Artifacts, func(a experiments.Artifact) bool { return a.ID == *fig })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "unknown artifact %q; known:", *fig)
		for _, a := range experiments.Artifacts {
			fmt.Fprintf(os.Stderr, " %s", a.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	rep := experiments.Artifacts[i].Run(*scale != "large")
	fmt.Println(rep)
	if !rep.Pass {
		os.Exit(1)
	}
}
