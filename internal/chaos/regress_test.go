package chaos

import "testing"

// Regression seeds: chaos runs that once violated an invariant. Each entry
// pins the exact (scenario, seed) reproducer that exposed a real bug, so
// the bug's fix stays load-bearing forever. Add new entries by copying the
// reproducer out of a failing run's violation report.
var regressions = []struct {
	name      string
	scenario  string
	seed      int64
	invariant string
}{
	{
		// Seed 4's mixed run overlapped a zone-stall with a suspension
		// storm: the storm's heal lifted the suspension of a machine whose
		// metadata had gone stale while it was withdrawn, and it served
		// 34.5s-old zone state for one sweep interval. Exposed two gaps:
		// Agent.OnCrash's restart path did not re-validate staleness before
		// unsuspending (and did not reset the health streaks, letting the
		// pre-crash OK run short-circuit the restart delay), and suspension
		// lifts generally must re-run CheckStaleness.
		name:      "stale-revival-after-storm",
		scenario:  "mixed",
		seed:      4,
		invariant: "stale-suspend",
	},
	{
		// Control-plane churn concurrent with a propagation stall: seed 3
		// interleaves ~30 changelist applies with the stall window, and the
		// churn-atomicity oracle (serial-coded www address must belong to a
		// committed zone version) watches every answered probe. This pins
		// the whole-zone apply atomicity of Store.Update — any regression
		// toward in-place record mutation or partial batch visibility
		// serves a half-applied zone and trips the oracle.
		name:      "half-applied-zone-under-stall",
		scenario:  "zone-churn-storm",
		seed:      3,
		invariant: "churn-atomicity",
	},
	{
		// Seed 7's propagation storm drives the pull plane through every
		// hard path at once: 15 corrupt transfers rejected by checksum
		// verification before install, an eviction-driven AXFR resync
		// (churn outran the bounded IXFR history during loss windows), and
		// hard outages that walk serve-stale → self-suspend → resume. Pins
		// verify-before-install (a puller that installs unverified
		// transfers serves a torn zone and trips churn-atomicity) and the
		// DeltaResync contract (mistaking eviction for no-history strands
		// machines behind, tripping propagation-convergence).
		name:      "corrupt-transfer-and-eviction-resync",
		scenario:  "propagation-storm",
		seed:      7,
		invariant: "propagation-convergence",
	},
}

func TestRegressionSeeds(t *testing.T) {
	for _, r := range regressions {
		r := r
		t.Run(r.name, func(t *testing.T) {
			res := runScenario(t, r.scenario, r.seed)
			for _, v := range res.Violations {
				t.Errorf("regressed (%s): %s", r.invariant, v)
			}
			if t.Failed() {
				t.Errorf("reproduce with: %s", res.Reproducer)
			}
		})
	}
}
