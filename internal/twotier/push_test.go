package twotier

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPushTimeNeverWorseThanTwoTier(t *testing.T) {
	f := func(a, b, c uint8) bool {
		T := 1 + float64(a)
		L := 1 + float64(b)
		rT := float64(c) / 255
		return PushTime(T, L, rT) <= TwoTierTime(T, L, rT)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPushAlwaysWinsWhenLowlevelCloser(t *testing.T) {
	// The §5.2 claim, verified over the whole rT range.
	f := func(a, b, c uint8) bool {
		T := 10 + float64(a)
		L := math.Mod(float64(b), T-1) + 0.5 // L < T
		rT := float64(c) / 255
		return PushSpeedup(T, L, rT) >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !PushAlwaysWins(50, 20) || PushAlwaysWins(20, 50) {
		t.Fatal("PushAlwaysWins condition wrong")
	}
}

func TestPushRecoversLosingRegion(t *testing.T) {
	// A low-volume resolver (rT near 1) with L < T loses under plain
	// Two-Tier but wins with push.
	T, L, rT := 60.0, 20.0, 0.95
	if Speedup(T, L, rT) >= 1 {
		t.Fatal("test premise wrong: plain Two-Tier should lose here")
	}
	if PushSpeedup(T, L, rT) < 1 {
		t.Fatal("push did not recover the losing region")
	}
}

func TestPushOnCombinedDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	probes, pops, lls := geoWorld(rng)
	rtts := MeasureRTTs(probes, pops, lls, DefaultMeasureConfig(), rng)
	var rts []RTSample
	for i := 0; i < 100; i++ {
		var lambda float64
		if i%2 == 0 {
			lambda = math.Pow(10, rng.Float64()*2)
		} else {
			lambda = 1.0 / (3600 * (1 + rng.Float64()*10))
		}
		rT, _, lowQ := SimulateRT(lambda, CDNHostTTLSeconds, ToplevelDelegationTTLSeconds, 50_000, rng)
		if lowQ > 0 {
			rts = append(rts, RTSample{RT: rT, LowQ: float64(lowQ)})
		}
	}
	ds := CombineDatasets(rtts, rts, 4, true, rng) // weighted = worst case
	plain, _ := SpeedupSamples(ds)
	push, _ := PushSpeedupSamples(ds)
	plainWins, pushWins, lCloser, rt1Outliers := 0, 0, 0, 0
	for i, r := range ds {
		if plain[i] > 1 {
			plainWins++
		}
		if push[i] > 1-1e-12 {
			pushWins++
		}
		if r.L <= r.T {
			lCloser++
		} else if r.RT >= 1-1e-9 {
			// L > T but rT = 1: push time degenerates to exactly T, a tie
			// that the >= comparison counts as a win.
			rt1Outliers++
		}
		if push[i]+1e-9 < plain[i] {
			t.Fatal("push slower than plain Two-Tier")
		}
	}
	if pushWins <= plainWins {
		t.Fatalf("push wins %d vs plain %d: no recovery", pushWins, plainWins)
	}
	// With push, winners = the resolvers with L <= T (plus exact ties at
	// rT=1).
	if pushWins < lCloser || pushWins > lCloser+rt1Outliers {
		t.Fatalf("push wins %d, want %d..%d", pushWins, lCloser, lCloser+rt1Outliers)
	}
}

// PushAlwaysWins reports the paper's claim for one (T, L): with push,
// Two-Tier beats the single tier whenever L < T, for every rT in [0, 1].
//
//	S_push = T / ((1-rT)L + rT·T) ≥ 1  ⇔  (1-rT)L + rT·T ≤ T
//	                                   ⇔  (1-rT)(L-T) ≤ 0  ⇔  L ≤ T.
func PushAlwaysWins(T, L float64) bool { return L <= T }
