// Package stats provides the empirical-distribution machinery used by the
// experiment harnesses: CDFs, weighted CDFs, PDFs/histograms, percentiles,
// Lorenz-style concentration curves (Figure 2), and hexbin summaries
// (Figure 12).
package stats

import (
	"math"
	"sort"
)

// Dist is an immutable empirical distribution over float64 samples.
type Dist struct {
	sorted []float64
}

// NewDist copies and sorts samples into a distribution. It is valid on an
// empty sample set; queries on an empty Dist return NaN.
func NewDist(samples []float64) *Dist {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &Dist{sorted: s}
}

// Min returns the smallest sample.
func (d *Dist) Min() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[0]
}

// Max returns the largest sample.
func (d *Dist) Max() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[len(d.sorted)-1]
}

// Mean returns the arithmetic mean.
func (d *Dist) Mean() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range d.sorted {
		sum += v
	}
	return sum / float64(len(d.sorted))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks.
func (d *Dist) Percentile(p float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 100 {
		return d.sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.sorted[lo]
	}
	frac := rank - float64(lo)
	return d.sorted[lo]*(1-frac) + d.sorted[hi]*frac
}

// Median is Percentile(50).
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Quartiles returns the three cut points of Python's
// statistics.quantiles(samples, n=4), the exclusive method: the k-th cut
// sits at 1-based position k(n+1)/4, interpolated between its neighbours
// and extrapolated from the end pair beyond them. This is the spread the
// benchmark contract measures; Percentile interpolates inclusively and
// gives a narrower one. One sample is all three cuts; none gives NaN.
func (d *Dist) Quartiles() (q1, q2, q3 float64) {
	v, n := d.sorted, len(d.sorted)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// CDF returns the empirical P(X ≤ x).
func (d *Dist) CDF(x float64) float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(d.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(d.sorted))
}

// FractionAbove returns P(X > x) = 1 - CDF(x).
func (d *Dist) FractionAbove(x float64) float64 {
	c := d.CDF(x)
	if math.IsNaN(c) {
		return c
	}
	return 1 - c
}

// WeightedDist is an empirical distribution where each sample carries a
// weight (e.g. resolvers weighted by query volume, as in Figures 4 and 11).
type WeightedDist struct {
	vals    []float64
	weights []float64 // aligned with vals, sorted by vals
	cum     []float64 // cumulative weights
	total   float64
}

// NewWeightedDist builds a weighted distribution. Negative weights panic;
// zero-weight samples are kept but contribute nothing.
func NewWeightedDist(vals, weights []float64) *WeightedDist {
	if len(vals) != len(weights) {
		panic("stats: vals and weights length mismatch")
	}
	type pair struct{ v, w float64 }
	ps := make([]pair, len(vals))
	for i := range vals {
		if weights[i] < 0 {
			panic("stats: negative weight")
		}
		ps[i] = pair{vals[i], weights[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	w := &WeightedDist{
		vals:    make([]float64, len(ps)),
		weights: make([]float64, len(ps)),
		cum:     make([]float64, len(ps)),
	}
	run := 0.0
	for i, p := range ps {
		w.vals[i] = p.v
		w.weights[i] = p.w
		run += p.w
		w.cum[i] = run
	}
	w.total = run
	return w
}

// CDF returns the weight fraction with value ≤ x.
func (w *WeightedDist) CDF(x float64) float64 {
	if len(w.vals) == 0 || w.total == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(w.vals, math.Nextafter(x, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return w.cum[i-1] / w.total
}

// FractionAbove returns the weight fraction with value > x.
func (w *WeightedDist) FractionAbove(x float64) float64 {
	c := w.CDF(x)
	if math.IsNaN(c) {
		return c
	}
	return 1 - c
}

// Histogram is a fixed-width-bin histogram over [min, max).
type Histogram struct {
	Min, Max float64
	Counts   []float64
	width    float64
	under    float64
	over     float64
	total    float64
}

// NewHistogram creates a histogram with n equal-width bins spanning
// [min, max). Samples outside the range accumulate in under/overflow.
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]float64, n), width: (max - min) / float64(n)}
}

// AddWeighted records an observation of x with weight w.
func (h *Histogram) AddWeighted(x, w float64) {
	h.total += w
	switch {
	case x < h.Min:
		h.under += w
	case x >= h.Max:
		h.over += w
	default:
		i := int((x - h.Min) / h.width)
		if i >= len(h.Counts) { // float edge
			i = len(h.Counts) - 1
		}
		h.Counts[i] += w
	}
}

// PDF returns, per bin, the probability mass (fraction of total weight).
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = c / h.total
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.width
}

// Concentration models a Lorenz-style "top x% of keys account for y% of
// volume" curve, as in Figure 2 of the paper.
type Concentration struct {
	volumes []float64 // sorted descending
	cum     []float64
	total   float64
}

// NewConcentration builds the curve from per-key volumes (queries per
// resolver IP, per ASN, or per zone).
func NewConcentration(volumes []float64) *Concentration {
	v := make([]float64, len(volumes))
	copy(v, volumes)
	sort.Sort(sort.Reverse(sort.Float64Slice(v)))
	c := &Concentration{volumes: v, cum: make([]float64, len(v))}
	run := 0.0
	for i, x := range v {
		run += x
		c.cum[i] = run
	}
	c.total = run
	return c
}

// TopShare reports the fraction of total volume contributed by the top
// fraction p (0..1] of keys ordered by volume.
func (c *Concentration) TopShare(p float64) float64 {
	if len(c.volumes) == 0 || c.total == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p * float64(len(c.volumes))))
	if k <= 0 {
		return 0
	}
	if k > len(c.volumes) {
		k = len(c.volumes)
	}
	return c.cum[k-1] / c.total
}

// ShareOfTopKey reports the largest single key's share of total volume.
func (c *Concentration) ShareOfTopKey() float64 {
	if len(c.volumes) == 0 || c.total == 0 {
		return math.NaN()
	}
	return c.volumes[0] / c.total
}

// Hexbin2D is a coarse 2D binning summary used for Figure 12. Despite the
// name it uses rectangular cells; the figure-level statistics (means, share
// above the diagonal) do not depend on cell shape.
type Hexbin2D struct {
	XMin, XMax, YMin, YMax float64
	NX, NY                 int
	Cells                  map[[2]int]float64
	n                      float64
	sumX, sumY             float64
	aboveDiag              float64
}

// NewHexbin2D creates an empty binning over the given extent.
func NewHexbin2D(xmin, xmax, ymin, ymax float64, nx, ny int) *Hexbin2D {
	if nx <= 0 || ny <= 0 || xmax <= xmin || ymax <= ymin {
		panic("stats: invalid hexbin parameters")
	}
	return &Hexbin2D{XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, NX: nx, NY: ny,
		Cells: make(map[[2]int]float64)}
}

// Add records a weighted point.
func (h *Hexbin2D) Add(x, y, w float64) {
	h.n += w
	h.sumX += x * w
	h.sumY += y * w
	if y > x {
		h.aboveDiag += w
	}
	cx := clampIndex((x-h.XMin)/(h.XMax-h.XMin)*float64(h.NX), h.NX)
	cy := clampIndex((y-h.YMin)/(h.YMax-h.YMin)*float64(h.NY), h.NY)
	h.Cells[[2]int{cx, cy}] += w
}

func clampIndex(f float64, n int) int {
	i := int(f)
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// MeanX returns the weighted mean of x coordinates.
func (h *Hexbin2D) MeanX() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sumX / h.n
}

// MeanY returns the weighted mean of y coordinates.
func (h *Hexbin2D) MeanY() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sumY / h.n
}

// FractionAboveDiagonal reports the weight share of points with y > x.
func (h *Hexbin2D) FractionAboveDiagonal() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.aboveDiag / h.n
}

// LogSpace returns n points logarithmically spaced between lo and hi
// (inclusive). Both must be positive.
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic("stats: invalid LogSpace parameters")
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := range out {
		out[i] = x
		x *= ratio
	}
	out[n-1] = hi
	return out
}
