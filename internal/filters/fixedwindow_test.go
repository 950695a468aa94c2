package filters

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"akamaidns/internal/simtime"
)

// fixedWindowRateLimit is the ablation comparator for RateLimit: a naive
// per-second window counter. Bursty-but-legitimate traffic (Figure 3) trips
// it far more often than the leaky bucket;
// BenchmarkAblationLeakyVsFixedWindow quantifies the difference.
type fixedWindowRateLimit struct {
	mu      sync.Mutex
	limits  map[string]float64
	windows map[string]*window
	// DefaultQPS and Penalty mirror RateLimit.
	DefaultQPS float64
	Penalty    float64
	Over       uint64
}

type window struct {
	start simtime.Time
	count float64
}

// newFixedWindowRateLimit returns the ablation limiter.
func newFixedWindowRateLimit() *fixedWindowRateLimit {
	return &fixedWindowRateLimit{
		limits:     make(map[string]float64),
		windows:    make(map[string]*window),
		DefaultQPS: 20,
		Penalty:    PenaltyRate,
	}
}

// Name implements Filter.
func (r *fixedWindowRateLimit) Name() string { return "ratelimit-fixed" }

// Learn installs the per-resolver rate.
func (r *fixedWindowRateLimit) Learn(resolver string, qps float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if qps > 0 {
		r.limits[resolver] = qps
	}
}

// Score implements Filter with a strict one-second window.
func (r *fixedWindowRateLimit) Score(q *Query) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	limit, ok := r.limits[q.Resolver]
	if !ok {
		limit = r.DefaultQPS
	}
	w := r.windows[q.Resolver]
	if w == nil || q.Now.Sub(w.start) >= simtime.Second.Duration() {
		w = &window{start: q.Now}
		r.windows[q.Resolver] = w
	}
	w.count++
	if w.count > limit {
		r.Over++
		return r.Penalty
	}
	return 0
}

// BenchmarkAblationLeakyVsFixedWindow quantifies the rate-limiter choice
// (§4.3.4): false-positive rate on bursty-but-legitimate traffic.
func BenchmarkAblationLeakyVsFixedWindow(b *testing.B) {
	burstTraffic := func(score func(*Query) float64) float64 {
		flagged, total := 0, 0
		now := simtime.Time(0)
		rng := rand.New(rand.NewSource(1))
		for burst := 0; burst < 50; burst++ {
			// Idle gap then a 100-query burst (Figure 3 behaviour).
			now = now.Add(time.Duration(10+rng.Intn(20)) * time.Second)
			for i := 0; i < 100; i++ {
				q := &Query{Resolver: "bursty", Now: now}
				if score(q) > 0 {
					flagged++
				}
				total++
				now = now.Add(2 * time.Millisecond)
			}
		}
		return float64(flagged) / float64(total)
	}
	var leakyFP, fixedFP float64
	for i := 0; i < b.N; i++ {
		rl := NewRateLimit()
		rl.Learn("bursty", 10)
		fw := newFixedWindowRateLimit()
		fw.Learn("bursty", 10)
		leakyFP = burstTraffic(rl.Score)
		fixedFP = burstTraffic(fw.Score)
	}
	if leakyFP >= fixedFP {
		b.Fatalf("leaky bucket FP %.3f not better than fixed window %.3f", leakyFP, fixedFP)
	}
	b.ReportMetric(leakyFP*100, "%fp-leaky")
	b.ReportMetric(fixedFP*100, "%fp-fixed")
}
