// Package twotier models the Two-Tier delegation system of §5.2: anycast
// "toplevel" nameservers delegate CDN zones (TTL 4000 s) to unicast
// "lowlevel" nameservers co-located with the CDN edge, which serve the
// 20-second-TTL CDN hostnames. It implements the paper's analytical model
// (Eq. 1), the RIPE-Atlas-style RTT measurement re-hosted on the geo
// simulation, and the renewal simulation of rT — the fraction of
// resolutions that must consult the toplevels.
package twotier

import (
	"math"
	"math/rand"
	"sort"

	"akamaidns/internal/netsim"
)

// Production TTLs (§5.2).
const (
	// ToplevelDelegationTTLSeconds is the toplevel->lowlevel NS TTL.
	ToplevelDelegationTTLSeconds = 4000
	// CDNHostTTLSeconds is the CDN hostname A-record TTL.
	CDNHostTTLSeconds = 20
)

// TwoTierTime returns the expected resolution time (same unit as T and L)
// under Two-Tier: (1-rT)·L + rT·(L+T).
func TwoTierTime(T, L, rT float64) float64 {
	return (1-rT)*L + rT*(L+T)
}

// Speedup is Eq. 1: the single-tier time T over the Two-Tier time. S > 1
// means Two-Tier reduces average resolution time.
func Speedup(T, L, rT float64) float64 {
	return T / TwoTierTime(T, L, rT)
}

// ProbeRTT is one vantage point's measured RTTs, in milliseconds.
type ProbeRTT struct {
	// AvgT aggregates the 13 toplevel delegation RTTs uniformly (the
	// best case for Two-Tier: resolvers that spread across delegations).
	AvgT float64
	// WgtT weights delegations inversely by RTT (the worst case:
	// resolvers that prefer low-RTT delegations).
	WgtT float64
	// L is the RTT to the mapping-tailored lowlevel.
	L float64
}

// The synthetic measurement's setting, the paper's (Figure 11).
const (
	// toplevels is the number of toplevel delegations (13 in production).
	toplevels = 13
	// catchmentSkew: the probability that anycast routes a probe to its
	// k-th nearest PoP decays as catchmentSkew^k. Typical anycast sends
	// most probes to one of the few nearest sites but rarely the absolute
	// nearest for every cloud.
	catchmentSkew = 0.5
	// mappingAccuracy is the probability the mapping system tailors the
	// truly nearest lowlevel (otherwise a nearby alternate).
	mappingAccuracy = 0.8
)

// MeasureRTTs computes per-probe (AvgT, WgtT, L) against toplevel PoP sites
// and lowlevel sites, reproducing the RIPE Atlas methodology on the geo
// model. RTT = 2 × one-way propagation delay.
func MeasureRTTs(probes, toplevelPoPs, lowlevels []netsim.GeoPoint, rng *rand.Rand) []ProbeRTT {
	out := make([]ProbeRTT, 0, len(probes))
	for _, p := range probes {
		// Distance-sorted PoP list for this probe.
		popRTT := rttsTo(p, toplevelPoPs)
		sort.Float64s(popRTT)
		// Each of the toplevels clouds is advertised from a different PoP
		// subset, so each cloud's catchment lands on a (skewed-random)
		// near-ish PoP.
		var ts []float64
		for c := 0; c < toplevels; c++ {
			k := geometricRank(rng, catchmentSkew, len(popRTT))
			ts = append(ts, popRTT[k])
		}
		avg := mean(ts)
		wgt := invRTTWeightedMean(ts)
		// Lowlevel: the mapping system tailors nearby lowlevels.
		llRTT := rttsTo(p, lowlevels)
		sort.Float64s(llRTT)
		li := 0
		if rng.Float64() > mappingAccuracy && len(llRTT) > 1 {
			li = 1 + geometricRank(rng, 0.5, len(llRTT)-1)
		}
		out = append(out, ProbeRTT{AvgT: avg, WgtT: wgt, L: llRTT[li]})
	}
	return out
}

func rttsTo(p netsim.GeoPoint, sites []netsim.GeoPoint) []float64 {
	rtts := make([]float64, len(sites))
	for i, s := range sites {
		rtts[i] = 2 * netsim.PropDelay(p, s).Seconds() * 1000
	}
	return rtts
}

// geometricRank draws k in [0, n) with P(k) ∝ skew^k.
func geometricRank(rng *rand.Rand, skew float64, n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for k < n-1 && rng.Float64() < skew {
		k++
	}
	return k
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// invRTTWeightedMean models a resolver whose preference for a delegation is
// inversely proportional to its RTT (§5.2's worst case for Two-Tier).
func invRTTWeightedMean(rtts []float64) float64 {
	num, den := 0.0, 0.0
	for _, r := range rtts {
		if r <= 0 {
			r = 0.01
		}
		w := 1 / r
		num += w * r
		den += w
	}
	return num / den
}

// SimulateRT runs a renewal simulation of one resolver's cache: queries for
// a CDN hostname arrive Poisson at rate lambda (per second); the hostname
// record lives hostTTL seconds and the lowlevel delegation nsTTL seconds.
// It returns rT = toplevel queries / lowlevel queries, as the paper
// estimates from production logs, along with the raw counts.
func SimulateRT(lambda, hostTTL, nsTTL, duration float64, rng *rand.Rand) (rT float64, topQ, lowQ int) {
	t := 0.0
	hostExp := -1.0 // expired
	nsExp := -1.0
	for {
		t += rng.ExpFloat64() / lambda
		if t > duration {
			break
		}
		if t < hostExp {
			continue // cache hit: no authoritative traffic
		}
		// Host record expired: must query the lowlevels.
		if t >= nsExp {
			// Delegation expired too: consult the toplevels first.
			topQ++
			nsExp = t + nsTTL
		}
		lowQ++
		hostExp = t + hostTTL
	}
	if lowQ == 0 {
		return 0, topQ, lowQ
	}
	return float64(topQ) / float64(lowQ), topQ, lowQ
}

// RTSample is one resolver's estimated rT with its query volume.
type RTSample struct {
	RT float64
	// LowQ is the lowlevel query count — the weight used for the
	// query-weighted statistics.
	LowQ float64
}

// RTStats summarizes rT across resolvers: the unweighted mean (paper: 0.48)
// and the lowlevel-query-weighted mean (paper: 0.008).
func RTStats(samples []RTSample) (mean, weightedMean float64) {
	if len(samples) == 0 {
		return math.NaN(), math.NaN()
	}
	sum, wsum, wtot := 0.0, 0.0, 0.0
	for _, s := range samples {
		sum += s.RT
		wsum += s.RT * s.LowQ
		wtot += s.LowQ
	}
	mean = sum / float64(len(samples))
	if wtot > 0 {
		weightedMean = wsum / wtot
	}
	return mean, weightedMean
}

// SimResolver is one element of the combined dataset of §5.2: an (T, L)
// pair from the RTT measurement joined with an rT (and query weight) from
// the traffic logs.
type SimResolver struct {
	T, L, RT float64
	Weight   float64
}

// CombineDatasets crosses probes' RTTs with rT samples the way the paper
// does ("we choose to combine all (T, L) and rT values from both datasets
// to produce a collection of simulated resolvers"). To keep the cross
// product bounded it pairs each probe with up to pairsPerProbe randomly
// drawn rT samples. useWeighted selects WgtT (worst case) or AvgT (best
// case) as T.
func CombineDatasets(rtts []ProbeRTT, rts []RTSample, pairsPerProbe int, useWeighted bool, rng *rand.Rand) []SimResolver {
	var out []SimResolver
	for _, pr := range rtts {
		T := pr.AvgT
		if useWeighted {
			T = pr.WgtT
		}
		for k := 0; k < pairsPerProbe; k++ {
			s := rts[rng.Intn(len(rts))]
			out = append(out, SimResolver{T: T, L: pr.L, RT: s.RT, Weight: s.LowQ})
		}
	}
	return out
}

// SpeedupSamples evaluates Eq. 1 over the dataset, returning per-resolver
// speedups and the weights for query-weighted statistics.
func SpeedupSamples(ds []SimResolver) (speedups, weights []float64) {
	speedups = make([]float64, len(ds))
	weights = make([]float64, len(ds))
	for i, r := range ds {
		speedups[i] = Speedup(r.T, r.L, r.RT)
		weights[i] = r.Weight
	}
	return speedups, weights
}
