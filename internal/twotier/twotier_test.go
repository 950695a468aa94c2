package twotier

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"akamaidns/internal/netsim"
	"akamaidns/internal/stats"
)

func TestSpeedupEquation(t *testing.T) {
	// rT = 0: never consult toplevels -> S = T/L.
	if got := Speedup(60, 15, 0); got != 4 {
		t.Fatalf("S(60,15,0) = %v", got)
	}
	// rT = 1: always both -> S = T/(L+T) < 1.
	if got := Speedup(60, 15, 1); math.Abs(got-60.0/75) > 1e-12 {
		t.Fatalf("S(60,15,1) = %v", got)
	}
	// Break-even: S = 1 when T = (1-rT)L + rT(L+T) -> L = T(1-rT).
	T, rT := 50.0, 0.3
	L := T * (1 - rT)
	if got := Speedup(T, L, rT); math.Abs(got-1) > 1e-12 {
		t.Fatalf("break-even S = %v", got)
	}
}

func TestPropertySpeedupMonotone(t *testing.T) {
	// S decreases in L and in rT; increases in T (for fixed L, rT < 1).
	f := func(a, b, c uint8) bool {
		T := 10 + float64(a)
		L := 1 + float64(b%100)
		rT := float64(c) / 256
		s := Speedup(T, L, rT)
		return Speedup(T, L+1, rT) <= s &&
			Speedup(T, L, math.Min(1, rT+0.1)) <= s &&
			Speedup(T+5, L, rT) >= s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRTBusyResolver(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A busy resolver (10 qps) refreshes the host every ~20 s and the
	// delegation every ~4000 s: rT ≈ 20/4000 = 0.005.
	rT, topQ, lowQ := SimulateRT(10, CDNHostTTLSeconds, ToplevelDelegationTTLSeconds, 200_000, rng)
	if rT < 0.003 || rT > 0.008 {
		t.Fatalf("busy rT = %v, want ~0.005", rT)
	}
	if topQ == 0 || lowQ == 0 {
		t.Fatal("no queries simulated")
	}
}

func TestSimulateRTIdleResolver(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A truly idle resolver (one query per ~20 hours; with exponential
	// interarrivals only ~5% of gaps fall inside the 4000 s NS TTL) misses
	// both caches nearly every time: rT ≈ 0.95.
	rT, _, _ := SimulateRT(1.0/72000, CDNHostTTLSeconds, ToplevelDelegationTTLSeconds, 100_000_000, rng)
	if rT < 0.85 {
		t.Fatalf("idle rT = %v, want ~0.95", rT)
	}
}

func TestRTStatsMatchesPaper(t *testing.T) {
	// A population mixing busy and idle resolvers reproduces §5.2's split:
	// unweighted mean rT ≈ 0.48 vs query-weighted ≈ 0.008.
	rng := rand.New(rand.NewSource(3))
	var samples []RTSample
	for i := 0; i < 400; i++ {
		// Half the resolvers busy (1..100 qps), half nearly idle.
		var lambda float64
		if i%2 == 0 {
			lambda = math.Pow(10, rng.Float64()*2) // 1..100 qps
		} else {
			lambda = 1.0 / (3600 * (1 + rng.Float64()*5)) // hours between queries
		}
		rT, _, lowQ := SimulateRT(lambda, CDNHostTTLSeconds, ToplevelDelegationTTLSeconds, 100_000, rng)
		if lowQ == 0 {
			continue
		}
		samples = append(samples, RTSample{RT: rT, LowQ: float64(lowQ)})
	}
	mean, wmean := RTStats(samples)
	if mean < 0.3 || mean > 0.65 {
		t.Fatalf("mean rT = %v, want ~0.48", mean)
	}
	if wmean > 0.03 {
		t.Fatalf("weighted mean rT = %v, want ~0.008", wmean)
	}
	if wmean >= mean {
		t.Fatal("weighting did not collapse rT")
	}
}

func geoWorld(rng *rand.Rand) (probes, pops, lowlevels []netsim.GeoPoint) {
	randPoint := func() netsim.GeoPoint {
		return netsim.GeoPoint{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}
	}
	for i := 0; i < 300; i++ {
		probes = append(probes, randPoint())
	}
	for i := 0; i < 40; i++ { // sparse anycast PoPs
		pops = append(pops, randPoint())
	}
	for i := 0; i < 400; i++ { // dense lowlevels (CDN footprint)
		lowlevels = append(lowlevels, randPoint())
	}
	return
}

func TestMeasureRTTsLowlevelUsuallyCloser(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	probes, pops, lls := geoWorld(rng)
	rtts := MeasureRTTs(probes, pops, lls, rng)
	if len(rtts) != len(probes) {
		t.Fatalf("rtts = %d", len(rtts))
	}
	avgCloser, wgtCloser := 0, 0
	for _, r := range rtts {
		if r.L < r.AvgT {
			avgCloser++
		}
		if r.L < r.WgtT {
			wgtCloser++
		}
		// The weighted aggregate can never exceed the average of the same
		// set (it down-weights the large RTTs).
		if r.WgtT > r.AvgT+1e-9 {
			t.Fatalf("WgtT %v > AvgT %v", r.WgtT, r.AvgT)
		}
	}
	// Paper: L < T for 98% (avg) and 87% (weighted) of probes.
	fa := float64(avgCloser) / float64(len(rtts))
	fw := float64(wgtCloser) / float64(len(rtts))
	if fa < 0.9 {
		t.Fatalf("L < AvgT for only %.3f of probes, want ~0.98", fa)
	}
	if fw < 0.75 {
		t.Fatalf("L < WgtT for only %.3f of probes, want ~0.87", fw)
	}
	if fw > fa {
		t.Fatal("weighted case should be harder than average case")
	}
}

func TestCombineAndSpeedupShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probes, pops, lls := geoWorld(rng)
	rtts := MeasureRTTs(probes, pops, lls, rng)
	// rT samples: busy resolvers dominate query volume.
	var rts []RTSample
	for i := 0; i < 200; i++ {
		var lambda float64
		if i%2 == 0 {
			lambda = math.Pow(10, rng.Float64()*2)
		} else {
			lambda = 1.0 / (3600 * (1 + rng.Float64()*5))
		}
		rT, _, lowQ := SimulateRT(lambda, CDNHostTTLSeconds, ToplevelDelegationTTLSeconds, 50_000, rng)
		if lowQ > 0 {
			rts = append(rts, RTSample{RT: rT, LowQ: float64(lowQ)})
		}
	}
	ds := CombineDatasets(rtts, rts, 4, false, rng)
	sp, w := SpeedupSamples(ds)
	resolverDist := stats.NewDist(sp)
	queryDist := stats.NewWeightedDist(sp, w)
	fracResolversFaster := resolverDist.FractionAbove(1)
	fracQueriesFaster := queryDist.FractionAbove(1)
	// Paper (Fig 11): 47-64% of resolvers but 87-98% of queries see S > 1.
	if fracResolversFaster < 0.3 || fracResolversFaster > 0.85 {
		t.Fatalf("resolvers with S>1 = %.3f, want ~0.47-0.64", fracResolversFaster)
	}
	if fracQueriesFaster < 0.8 {
		t.Fatalf("queries with S>1 = %.3f, want ~0.87-0.98", fracQueriesFaster)
	}
	if fracQueriesFaster <= fracResolversFaster {
		t.Fatal("query weighting must amplify the win (busy resolvers have tiny rT)")
	}
}

func TestRTStatsEmpty(t *testing.T) {
	m, w := RTStats(nil)
	if !math.IsNaN(m) || !math.IsNaN(w) {
		t.Fatal("empty stats not NaN")
	}
}
