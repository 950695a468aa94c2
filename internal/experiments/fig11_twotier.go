package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"akamaidns/internal/anycast"
	"akamaidns/internal/netsim"
	"akamaidns/internal/stats"
	"akamaidns/internal/twotier"
	"akamaidns/internal/workload"
)

// twoTierDataset builds the §5.2 measurement: probes (RIPE-Atlas stand-ins)
// measure toplevel/lowlevel RTTs over the geo model; resolver rT values come
// from the renewal simulation over the calibrated workload's resolver rates.
type twoTierData struct {
	rtts []twotier.ProbeRTT
	rts  []twotier.RTSample
}

func buildTwoTierData(small bool, seed int64) twoTierData {
	rng := rand.New(rand.NewSource(seed))
	nProbes, nPoPs, nLow, nRT := 400, 40, 500, 300
	if !small {
		nProbes, nPoPs, nLow, nRT = 1663, 80, 2000, 1000
	}
	// Geo placement: population-weighted regions for probes; PoPs sparser
	// than the lowlevel CDN footprint ("deployed within 1,600 networks").
	regions := netsim.DefaultRegions()
	draw := func() netsim.GeoPoint {
		x := rng.Float64()
		acc := 0.0
		for _, rg := range regions {
			acc += rg.Weight
			if x < acc {
				return netsim.GeoPoint{
					Lat: clampLat(rg.Center.Lat + rng.NormFloat64()*rg.SpreadDeg),
					Lon: rg.Center.Lon + rng.NormFloat64()*rg.SpreadDeg,
				}
			}
		}
		return regions[0].Center
	}
	var probes, pops, lows []netsim.GeoPoint
	for i := 0; i < nProbes; i++ {
		probes = append(probes, draw())
	}
	for i := 0; i < nPoPs; i++ {
		pops = append(pops, draw())
	}
	for i := 0; i < nLow; i++ {
		lows = append(lows, draw())
	}
	rtts := twotier.MeasureRTTs(probes, pops, lows, rng)

	// rT: per-resolver CDN-hostname query rates span six decades — most of
	// the 575K resolver IPs in the paper's log study are nearly idle
	// (their rT approaches 1) while a few busy public resolvers carry
	// almost all lowlevel queries (their rT is ~hostTTL/nsTTL = 0.005).
	// 85% of resolvers draw log-uniform from the idle-to-moderate range,
	// 15% from the busy range.
	var rts []twotier.RTSample
	for i := 0; i < nRT; i++ {
		var lambda float64
		if rng.Float64() < 0.85 {
			lambda = math.Pow(10, -6+rng.Float64()*4.8) // 1e-6 .. ~6e-2 qps
		} else {
			lambda = math.Pow(10, -1.2+rng.Float64()*2.7) // ~6e-2 .. ~30 qps
		}
		// Simulate long enough for every rate class to register queries.
		duration := 200_000.0
		if need := 50 / lambda; need > duration {
			duration = need
		}
		rT, _, lowQ := twotier.SimulateRT(lambda,
			twotier.CDNHostTTLSeconds, twotier.ToplevelDelegationTTLSeconds, duration, rng)
		if lowQ == 0 {
			continue
		}
		// Normalize weights to a common observation window so weights are
		// per-rate, not per-simulated-duration.
		rts = append(rts, twotier.RTSample{RT: rT, LowQ: float64(lowQ) * 200_000 / duration})
	}
	return twoTierData{rtts: rtts, rts: rts}
}

func clampLat(l float64) float64 {
	if l > 85 {
		return 85
	}
	if l < -85 {
		return -85
	}
	return l
}

// Fig11TwoTierSpeedup regenerates Figure 11: CDFs of the Eq. 1 speedup S
// across simulated resolvers and across queries, for average-RTT and
// weighted-RTT resolver behaviours.
func Fig11TwoTierSpeedup(small bool) Report {
	data := buildTwoTierData(small, 11)
	rng := rand.New(rand.NewSource(12))

	type line struct {
		name  string
		dist  *stats.Dist
		wdist *stats.WeightedDist
		fracR float64
		fracQ float64
	}
	var lines []line
	for _, weighted := range []bool{false, true} {
		ds := twotier.CombineDatasets(data.rtts, data.rts, 4, weighted, rng)
		sp, w := twotier.SpeedupSamples(ds)
		d := stats.NewDist(sp)
		wd := stats.NewWeightedDist(sp, w)
		name := "avg RTT"
		if weighted {
			name = "wgt RTT"
		}
		lines = append(lines, line{name: name, dist: d, wdist: wd,
			fracR: d.FractionAbove(1), fracQ: wd.FractionAbove(1)})
	}
	avg, wgt := lines[0], lines[1]
	rep := Report{
		ID:         "fig11",
		Title:      "Two-Tier speedup S over a single tier of toplevels (Eq. 1)",
		PaperClaim: "S>1 for 47% (wgt) to 64% (avg) of resolvers, which carry 87-98% of queries",
		Measured: fmt.Sprintf("S>1: resolvers avg=%.0f%% wgt=%.0f%%; queries avg=%.0f%% wgt=%.0f%%",
			avg.fracR*100, wgt.fracR*100, avg.fracQ*100, wgt.fracQ*100),
		Pass: avg.fracR > wgt.fracR && // avg case is better for Two-Tier
			wgt.fracR > 0.30 && avg.fracR < 0.90 &&
			avg.fracQ > 0.85 && wgt.fracQ > 0.80,
	}
	rep.Series = append(rep.Series, "# speedup   cdf-avg-R   cdf-wgt-R   cdf-avg-Q   cdf-wgt-Q")
	for _, x := range stats.LogSpace(1.0/16, 16, 17) {
		rep.Series = append(rep.Series, fmt.Sprintf("%9.3f %11.3f %11.3f %11.3f %11.3f",
			x, avg.dist.CDF(x), wgt.dist.CDF(x), avg.wdist.CDF(x), wgt.wdist.CDF(x)))
	}
	return rep
}

// Fig12ResolutionTimes regenerates Figure 12: absolute per-query resolution
// times under Two-Tier (x) vs toplevels only (y), query-weighted, as hexbin
// summaries plus the paper's headline means.
func Fig12ResolutionTimes(small bool) Report {
	data := buildTwoTierData(small, 13)
	rng := rand.New(rand.NewSource(14))
	means := map[string][2]float64{}
	bins := map[string]*stats.Hexbin2D{}
	for _, weighted := range []bool{false, true} {
		name := "avg"
		if weighted {
			name = "wgt"
		}
		ds := twotier.CombineDatasets(data.rtts, data.rts, 4, weighted, rng)
		hb := stats.NewHexbin2D(0, 200, 0, 200, 24, 24)
		var twoTierSum, topSum, wSum float64
		for _, r := range ds {
			tt := twotier.TwoTierTime(r.T, r.L, r.RT)
			hb.Add(tt, r.T, r.Weight)
			twoTierSum += tt * r.Weight
			topSum += r.T * r.Weight
			wSum += r.Weight
		}
		means[name] = [2]float64{twoTierSum / wSum, topSum / wSum}
		bins[name] = hb
	}
	rep := Report{
		ID:         "fig12",
		Title:      "Per-query resolution time: Two-Tier (x) vs toplevels (y)",
		PaperClaim: "Two-Tier ~16 ms average both ways; toplevel 27 ms (wgt) / 61 ms (avg); mass above the diagonal",
		Measured: fmt.Sprintf("Two-Tier avg=%.0f ms wgt=%.0f ms; toplevel avg=%.0f ms wgt=%.0f ms; above-diagonal avg=%.0f%% wgt=%.0f%%",
			means["avg"][0], means["wgt"][0], means["avg"][1], means["wgt"][1],
			bins["avg"].FractionAboveDiagonal()*100, bins["wgt"].FractionAboveDiagonal()*100),
		Pass: means["avg"][0] < means["avg"][1] && means["wgt"][0] < means["wgt"][1] &&
			means["avg"][1] > means["wgt"][1] && // avg-RTT toplevel is slower than weighted
			bins["avg"].FractionAboveDiagonal() > 0.8,
	}
	for _, name := range []string{"wgt", "avg"} {
		hb := bins[name]
		rep.Series = append(rep.Series,
			fmt.Sprintf("# %s RTT: meanTwoTier=%.1fms meanToplevel=%.1fms cells=%d aboveDiag=%.2f",
				name, hb.MeanX(), hb.MeanY(), len(hb.Cells), hb.FractionAboveDiagonal()))
	}
	return rep
}

// TableRT regenerates the §5.2 in-text rT statistics.
func TableRT(small bool) Report {
	data := buildTwoTierData(small, 15)
	mean, wmean := twotier.RTStats(data.rts)
	rep := Report{
		ID:         "rt",
		Title:      "Fraction of resolutions contacting the toplevels (rT)",
		PaperClaim: "mean rT = 0.48; lowlevel-query-weighted mean = 0.008",
		Measured:   fmt.Sprintf("mean rT = %.2f; weighted mean = %.4f", mean, wmean),
		Pass:       mean > 0.25 && mean < 0.7 && wmean < 0.05 && wmean < mean/5,
	}
	return rep
}

// TableIPTTLConsistency regenerates the §4.3.4 in-text IP TTL observation.
func TableIPTTLConsistency(small bool) Report {
	rng := rand.New(rand.NewSource(16))
	pop := workload.NewPopulation(popConfig(small), rng)
	// One hour of traffic; track per-source TTL variation.
	seen := map[int]map[int]bool{}
	trials := 400_000
	if !small {
		trials = 2_000_000
	}
	for i := 0; i < trials; i++ {
		ev := pop.SampleQuery()
		m := seen[ev.ResolverIdx]
		if m == nil {
			m = map[int]bool{}
			seen[ev.ResolverIdx] = m
		}
		m[ev.IPTTL] = true
	}
	varied, wide, multi := 0, 0, 0
	for _, ttls := range seen {
		if len(ttls) < 2 {
			continue
		}
		multi++
		varied++
		min, max := math.MaxInt32, 0
		for t := range ttls {
			if t < min {
				min = t
			}
			if t > max {
				max = t
			}
		}
		if max-min > 2 {
			wide++
		}
	}
	total := len(seen)
	fVar := float64(varied) / float64(total)
	fWide := float64(wide) / float64(total)
	rep := Report{
		ID:         "ipttl",
		Title:      "Per-source IP TTL consistency",
		PaperClaim: "12% of source IPs show any TTL variation in an hour; 4.7% ever vary by more than ±1",
		Measured:   fmt.Sprintf("%.1f%% varied at all; %.1f%% varied by more than ±1 (heavy sources only are multi-sampled)", fVar*100, fWide*100),
		Pass:       fVar < 0.25 && fWide < 0.08 && fWide < fVar,
	}
	_ = multi
	return rep
}

// TableDelegationCapacity regenerates the §3.1 capacity claim.
func TableDelegationCapacity() Report {
	c := anycast.Capacity(anycast.NumClouds, anycast.DelegationSetSize)
	rep := Report{
		ID:         "delegation",
		Title:      "Delegation-set capacity",
		PaperClaim: "C(24,6) enterprises supported before adding clouds",
		Measured:   fmt.Sprintf("C(24,6) = %s unique 6-cloud delegation sets; <=2 clouds per PoP", c),
		Pass:       c.Int64() == 134596,
	}
	return rep
}
