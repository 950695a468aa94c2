// Package experiments reproduces every figure and table of the paper's
// evaluation. Each Fig* function runs one experiment end-to-end on the
// simulated substrates and returns both structured results and a formatted
// report whose rows mirror the paper's plotted series. cmd/experiments and
// the repository-root benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"
)

// Report is a formatted experiment output.
type Report struct {
	// ID is the paper artifact ("fig1", "fig8", ...).
	ID string
	// Title describes the artifact.
	Title string
	// PaperClaim summarizes what the paper reports.
	PaperClaim string
	// Measured summarizes what this reproduction measured.
	Measured string
	// Series holds the printable data lines.
	Series []string
	// Pass reports whether the measured shape matches the paper's claim.
	Pass bool
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper:    %s\n", r.PaperClaim)
	fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	fmt.Fprintf(&b, "shape-match: %v\n", r.Pass)
	for _, s := range r.Series {
		b.WriteString(s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Artifact is one paper artifact: its id and the runner that regenerates
// it, at laptop scale when small.
type Artifact struct {
	ID  string
	Run func(small bool) Report
}

// Artifacts lists every artifact in paper order, the extensions last.
var Artifacts = []Artifact{
	{"fig1", Fig1WorkloadWeek},
	{"fig2", Fig2Concentration},
	{"fig3", Fig3PerResolverRates},
	{"fig4", Fig4WeeklyChange},
	{"consistency", TableResolverConsistency},
	{"fig8", Fig8Failover},
	{"fig9", func(bool) Report { return Fig9DecisionTree() }},
	{"fig10", Fig10NXDomainFilter},
	{"fig11", Fig11TwoTierSpeedup},
	{"fig12", Fig12ResolutionTimes},
	{"rt", TableRT},
	{"ipttl", TableIPTTLConsistency},
	{"delegation", func(bool) Report { return TableDelegationCapacity() }},
	{"push", ExtPushSpeedup},
	{"predict", ExtCatchmentPrediction},
}

// All runs every artifact at the given scale and returns the reports in
// Artifacts' order. scale selects laptop-friendly ("small") or full
// ("large") parameters.
func All(scale string) []Report {
	reports := make([]Report, len(Artifacts))
	for i, a := range Artifacts {
		reports[i] = a.Run(scale != "large")
	}
	return reports
}
