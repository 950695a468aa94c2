package twotier

// This file implements the extension §5.2 closes with: "If the DNS response
// from the toplevels could, in addition to delegating to lowlevels, push an
// answer so that the resolver need not query the lowlevels in the same
// resolution, then Two-Tier would always be beneficial when the lowlevel
// RTT is less than the toplevel RTT." Server push exists in DoH (RFC 8484);
// the model here quantifies exactly how much of Figure 11's losing region
// the push variant recovers.

// PushTime returns the expected resolution time under Two-Tier with
// toplevel answer push: cache-fresh resolutions still cost L (lowlevel
// refresh), but a resolution that must consult the toplevels completes in
// T — the pushed answer replaces the follow-up lowlevel query.
func PushTime(T, L, rT float64) float64 {
	return (1-rT)*L + rT*T
}

// PushSpeedup is Eq. 1 with the push variant in the denominator.
func PushSpeedup(T, L, rT float64) float64 {
	return T / PushTime(T, L, rT)
}

// PushSpeedupSamples evaluates the push variant over a combined dataset.
func PushSpeedupSamples(ds []SimResolver) (speedups, weights []float64) {
	speedups = make([]float64, len(ds))
	weights = make([]float64, len(ds))
	for i, r := range ds {
		speedups[i] = PushSpeedup(r.T, r.L, r.RT)
		weights[i] = r.Weight
	}
	return speedups, weights
}
