package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use, but counters obtained from a Registry are also visible to scrapers.
// All methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an integer-valued instantaneous measurement (depths, sizes,
// temperatures). Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency/size distribution. Buckets are
// cumulative-upper-bound style (Prometheus "le"); an implicit +Inf bucket
// catches everything. Observe is a short linear scan plus two atomic adds —
// designed to stay under ~100ns on the serving hot path.
type Histogram struct {
	upper   []float64 // sorted upper bounds, +Inf excluded
	upperNs []int64   // the same bounds in nanoseconds, for ObserveDuration
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated (Observe)
	sumNs   atomic.Int64  // nanoseconds, add-accumulated (ObserveDuration)
}

// DefLatencyBuckets spans 1µs..1s, the range a DNS query can plausibly
// spend between socket read and response write.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1,
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. Not usually called directly — use Registry.Histogram so the
// series is scrapeable.
func NewHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	up := append([]float64(nil), buckets...)
	ns := make([]int64, len(up))
	for i, u := range up {
		if f := u * 1e9; f >= math.MaxInt64 {
			ns[i] = math.MaxInt64
		} else {
			ns[i] = int64(f + 0.5)
		}
	}
	return &Histogram{upper: up, upperNs: ns, counts: make([]atomic.Uint64, len(up))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≈20) and the branch predictor
	// wins over binary search at this size.
	idx := -1
	for i, up := range h.upper {
		if v <= up {
			idx = i
			break
		}
	}
	if idx >= 0 {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records one latency without touching floating point: the
// bucket scan compares integer nanoseconds against precomputed bounds and
// the sum accumulates by a single atomic add instead of Observe's CAS loop.
// This is the serving-path variant — the tracer stamps every query through
// it several times.
func (h *Histogram) ObserveDuration(d time.Duration) {
	n := int64(d)
	idx := -1
	for i, up := range h.upperNs {
		if n <= up {
			idx = i
			break
		}
	}
	if idx >= 0 {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sumNs.Add(n)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values (Observe's float accumulator plus
// ObserveDuration's nanosecond accumulator, in seconds).
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sum.Load()) + float64(h.sumNs.Load())*1e-9
}

// Buckets returns the upper bounds and their cumulative counts (the +Inf
// bucket is the final entry with Upper = +Inf).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.upper)+1)
	var cum uint64
	for i, up := range h.upper {
		cum += h.counts[i].Load()
		out = append(out, Bucket{Upper: up, Count: cum})
	}
	out = append(out, Bucket{Upper: math.Inf(1), Count: cum + h.inf.Load()})
	return out
}

// Bucket is one cumulative histogram bucket: Count observations were <=
// Upper.
type Bucket struct {
	Upper float64
	Count uint64
}

// Quantile estimates the q-quantile (0 < q <= 1) from bucket boundaries by
// linear interpolation within the bucket, Prometheus histogram_quantile
// style. Returns NaN with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	return BucketQuantile(h.Buckets(), q)
}

// BucketQuantile is Quantile over a pre-captured bucket snapshot.
func BucketQuantile(buckets []Bucket, q float64) float64 {
	if len(buckets) == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	for i, b := range buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.Upper, 1) {
				// Open-ended: report the last finite bound.
				if len(buckets) >= 2 {
					return buckets[len(buckets)-2].Upper
				}
				return math.NaN()
			}
			lo, cnt := 0.0, float64(b.Count)
			if i > 0 {
				lo = buckets[i-1].Upper
				cnt -= float64(buckets[i-1].Count)
				rank -= float64(buckets[i-1].Count)
			}
			if cnt == 0 {
				return b.Upper
			}
			return lo + (b.Upper-lo)*(rank/cnt)
		}
	}
	return buckets[len(buckets)-1].Upper
}
