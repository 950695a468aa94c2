package filters

import (
	"sync"

	"akamaidns/internal/simtime"
)

// RateLimit is the per-resolver leaky-bucket rate limiter of §4.3.4 (attack
// class 2, "Direct Query"). The limit for each resolver is learned from
// historically observed query rates; DNS traffic is bursty (Figure 3), hence
// a leaky bucket rather than a fixed window.
type RateLimit struct {
	mu sync.Mutex
	// limits holds the learned sustained rate (qps) per resolver.
	limits map[string]float64
	// buckets holds current fill level and last-drain time.
	buckets map[string]*bucket

	// DefaultQPS applies to resolvers with no learned history.
	DefaultQPS float64
	// BurstSeconds sizes the bucket: capacity = limit * BurstSeconds.
	// Figure 3 shows max/avg ratios above 10x, so the default is generous.
	BurstSeconds float64
	// Penalty is the score added for queries over the limit.
	Penalty float64

	// Over counts queries that exceeded their resolver's bucket.
	Over uint64
}

type bucket struct {
	level float64
	last  simtime.Time
}

// NewRateLimit returns a limiter with platform defaults.
func NewRateLimit() *RateLimit {
	return &RateLimit{
		limits:       make(map[string]float64),
		buckets:      make(map[string]*bucket),
		DefaultQPS:   20,
		BurstSeconds: 15,
		Penalty:      PenaltyRate,
	}
}

// Name implements Filter.
func (r *RateLimit) Name() string { return "ratelimit" }

// Learn installs the typical query rate for a resolver (from historical
// data). Rates at or below zero fall back to DefaultQPS.
func (r *RateLimit) Learn(resolver string, qps float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if qps > 0 {
		r.limits[resolver] = qps
	} else {
		delete(r.limits, resolver)
	}
}

func (r *RateLimit) limitLocked(resolver string) float64 {
	if l, ok := r.limits[resolver]; ok {
		return l
	}
	return r.DefaultQPS
}

// Score implements Filter: each query adds one token; tokens drain at the
// learned rate; a full bucket penalizes the query.
func (r *RateLimit) Score(q *Query) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := r.limitLocked(q.Resolver)
	cap := limit * r.BurstSeconds
	b := r.buckets[q.Resolver]
	if b == nil {
		if len(r.buckets) >= maxSources {
			r.sweepLocked(q.Now)
		}
		b = &bucket{last: q.Now}
		r.buckets[q.Resolver] = b
	}
	// Drain since last observation.
	elapsed := q.Now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.level -= elapsed * limit
		if b.level < 0 {
			b.level = 0
		}
		b.last = q.Now
	}
	b.level++
	if b.level > cap {
		b.level = cap // saturate; do not grow without bound
		r.Over++
		return r.Penalty
	}
	return 0
}

// sweepLocked drops every bucket that has drained to zero by now — it is
// equivalent to an absent one — and, when a flood has left the map full of
// live buckets all the same, starts over.
func (r *RateLimit) sweepLocked(now simtime.Time) {
	for resolver, b := range r.buckets {
		if b.level <= now.Sub(b.last).Seconds()*r.limitLocked(resolver) {
			delete(r.buckets, resolver)
		}
	}
	if len(r.buckets) >= maxSources {
		r.buckets = make(map[string]*bucket)
	}
}
