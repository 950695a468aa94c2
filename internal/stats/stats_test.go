package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistBasics(t *testing.T) {
	d := NewDist([]float64{4, 1, 3, 2, 5})
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.Mean() != 3 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if d.Median() != 3 {
		t.Fatalf("Median = %v", d.Median())
	}
}

func TestDistEmpty(t *testing.T) {
	d := NewDist(nil)
	for name, v := range map[string]float64{
		"Min": d.Min(), "Max": d.Max(), "Mean": d.Mean(),
		"Median": d.Median(), "CDF": d.CDF(1),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("%s on empty dist = %v, want NaN", name, v)
		}
	}
}

func TestDistCDF(t *testing.T) {
	d := NewDist([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := d.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := d.FractionAbove(2); got != 0.25 {
		t.Errorf("FractionAbove(2) = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Each want is statistics.quantiles(samples, n=4): the exclusive
	// method, extrapolating past the ends on two samples.
	for _, c := range []struct {
		samples []float64
		want    [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := NewDist(c.samples).Quartiles()
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", c.samples, q1, q2, q3, c.want)
		}
	}
	if q1, _, _ := NewDist(nil).Quartiles(); !math.IsNaN(q1) {
		t.Errorf("Quartiles on empty dist = %v, want NaN", q1)
	}
}

func TestPropertyQuartileMedianIsMedian(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		d := NewDist(xs)
		if len(xs) == 0 {
			return true
		}
		q1, q2, q3 := d.Quartiles()
		return almostEq(q2, d.Median(), 1e-9) && q1 <= q2 && q2 <= q3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistPercentileInterpolation(t *testing.T) {
	d := NewDist([]float64{0, 10})
	if got := d.Percentile(50); got != 5 {
		t.Fatalf("P50 = %v, want 5", got)
	}
	if d.Percentile(0) != 0 || d.Percentile(100) != 10 {
		t.Fatal("P0/P100 wrong")
	}
	if d.Percentile(-5) != 0 || d.Percentile(150) != 10 {
		t.Fatal("out-of-range percentile not clamped")
	}
}

func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]float64, 50)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		d := NewDist(samples)
		prev := -1.0
		for x := -30.0; x <= 30; x += 0.5 {
			c := d.CDF(x)
			if c < prev || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(seed int64, p uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]float64, 20)
		for i := range samples {
			samples[i] = rng.Float64() * 100
		}
		d := NewDist(samples)
		v := d.Percentile(float64(p % 101))
		return v >= d.Min() && v <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDist(t *testing.T) {
	// Value 10 has 90% of weight.
	w := NewWeightedDist([]float64{1, 10}, []float64{1, 9})
	if got := w.CDF(1); got != 0.1 {
		t.Fatalf("CDF(1) = %v", got)
	}
	if got := w.CDF(10); got != 1.0 {
		t.Fatalf("CDF(10) = %v", got)
	}
}

func TestWeightedDistMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	NewWeightedDist([]float64{1}, []float64{1, 2})
}

func TestWeightedDistNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative weight")
		}
	}()
	NewWeightedDist([]float64{1}, []float64{-1})
}

func TestWeightedMatchesUnweightedWhenUniform(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 30)
		ws := make([]float64, 30)
		for i := range vals {
			vals[i] = rng.Float64() * 50
			ws[i] = 1
		}
		d := NewDist(vals)
		w := NewWeightedDist(vals, ws)
		for x := 0.0; x <= 50; x += 5 {
			if !almostEq(d.CDF(x), w.CDF(x), 1e-9) || !almostEq(d.FractionAbove(x), w.FractionAbove(x), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.AddWeighted(float64(i)+0.5, 1)
	}
	h.AddWeighted(-1, 1) // underflow
	h.AddWeighted(11, 1) // overflow
	if h.total != 12 {
		t.Fatalf("total = %v", h.total)
	}
	pdf := h.PDF()
	for i, p := range pdf {
		if !almostEq(p, 1.0/12, 1e-12) {
			t.Fatalf("bin %d pdf = %v", i, p)
		}
	}
	if got := h.BinCenter(0); got != 0.5 {
		t.Fatalf("BinCenter(0) = %v", got)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.AddWeighted(0, 1)    // first bin
	h.AddWeighted(0.25, 1) // second bin boundary -> bin 1
	h.AddWeighted(1, 1)    // == max -> overflow
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.over != 1 {
		t.Fatalf("overflow = %v", h.over)
	}
}

func TestConcentration(t *testing.T) {
	// One key with 80, nine keys with ~2.2 each: top 10% -> 80%.
	vols := []float64{80}
	for i := 0; i < 9; i++ {
		vols = append(vols, 20.0/9)
	}
	c := NewConcentration(vols)
	if got := c.TopShare(0.1); !almostEq(got, 0.8, 1e-9) {
		t.Fatalf("TopShare(0.1) = %v", got)
	}
	if got := c.TopShare(1.0); !almostEq(got, 1.0, 1e-9) {
		t.Fatalf("TopShare(1) = %v", got)
	}
	if got := c.ShareOfTopKey(); !almostEq(got, 0.8, 1e-9) {
		t.Fatalf("ShareOfTopKey = %v", got)
	}
	if got := c.TopShare(0); got != 0 {
		t.Fatalf("TopShare(0) = %v", got)
	}
}

func TestPropertyConcentrationMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vols := make([]float64, 100)
		for i := range vols {
			vols[i] = rng.Float64() * 1000
		}
		c := NewConcentration(vols)
		prev := 0.0
		for p := 0.01; p <= 1.0; p += 0.01 {
			s := c.TopShare(p)
			if s < prev-1e-12 || s > 1+1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHexbin2D(t *testing.T) {
	h := NewHexbin2D(0, 100, 0, 100, 10, 10)
	h.Add(10, 50, 1) // above diagonal
	h.Add(50, 10, 1) // below
	h.Add(30, 30, 2) // on diagonal: not above
	if got := h.FractionAboveDiagonal(); got != 0.25 {
		t.Fatalf("FractionAboveDiagonal = %v", got)
	}
	if got := h.MeanX(); got != (10+50+60)/4.0 {
		t.Fatalf("MeanX = %v", got)
	}
	if got := h.MeanY(); got != (50+10+60)/4.0 {
		t.Fatalf("MeanY = %v", got)
	}
	if len(h.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(h.Cells))
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if !almostEq(xs[i], want[i], 1e-9) {
			t.Fatalf("LogSpace = %v", xs)
		}
	}
}

func TestWeightedDistNAndFractionAbove(t *testing.T) {
	w := NewWeightedDist([]float64{1, 2, 3}, []float64{1, 1, 2})
	if got := w.FractionAbove(2); got != 0.5 {
		t.Fatalf("FractionAbove(2) = %v", got)
	}
	empty := NewWeightedDist(nil, nil)
	if !math.IsNaN(empty.CDF(1)) {
		t.Fatal("empty weighted dist not NaN")
	}
	if !math.IsNaN(empty.FractionAbove(1)) {
		t.Fatal("empty FractionAbove not NaN")
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewHistogram(0, 0, 10) },
		func() { NewHistogram(0, 1, 0) },
		func() { NewHexbin2D(0, 0, 0, 1, 1, 1) },
		func() { NewHexbin2D(0, 1, 0, 1, 0, 1) },
		func() { LogSpace(0, 10, 5) },
		func() { LogSpace(1, 10, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEmptyAggregates(t *testing.T) {
	c := NewConcentration(nil)
	if !math.IsNaN(c.TopShare(0.5)) || !math.IsNaN(c.ShareOfTopKey()) {
		t.Fatal("empty concentration not NaN")
	}
	h := NewHexbin2D(0, 1, 0, 1, 2, 2)
	if !math.IsNaN(h.MeanX()) || !math.IsNaN(h.MeanY()) || !math.IsNaN(h.FractionAboveDiagonal()) {
		t.Fatal("empty hexbin not NaN")
	}
	if clampIndex(-1, 4) != 0 || clampIndex(7, 4) != 3 || clampIndex(2, 4) != 2 {
		t.Fatal("clampIndex")
	}
}

func TestShareOfTopKeySingle(t *testing.T) {
	c := NewConcentration([]float64{42})
	if c.ShareOfTopKey() != 1 {
		t.Fatal("single-key share")
	}
}
