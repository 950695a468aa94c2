package filters

import (
	"sync"
	"sync/atomic"
)

// HopCount is the IP-TTL ("hop-count filtering") defense against spoofed
// source addresses (§4.3.4, attack class 4). The filter learns the IP TTL
// with which each allowlisted resolver's queries arrive; the paper observes
// the TTL is consistent per source (only 12% of sources show any variation
// in an hour, 4.7% ever vary by more than ±1). A spoofed query from a
// different topological location almost always arrives with a different TTL.
type HopCount struct {
	mu sync.RWMutex
	// expected maps resolver -> learned TTL, at most maxSources of them.
	expected map[string]int
	active   bool

	// Tolerance is the accepted |observed-expected| slack.
	Tolerance int
	// Penalty is the score for TTL mismatches.
	Penalty float64
	// Flagged counts penalized queries.
	Flagged atomic.Uint64
}

// NewHopCount returns an inactive hop-count filter with ±1 tolerance.
func NewHopCount() *HopCount {
	return &HopCount{expected: make(map[string]int), Tolerance: 1, Penalty: PenaltyHopCount}
}

// Name implements Filter.
func (h *HopCount) Name() string { return "hopcount" }

// Learn records the expected TTL for a resolver (from historical data). A
// full table still updates the resolvers it holds but learns no newcomer,
// so a flood of spoofed sources cannot push the incumbents out.
func (h *HopCount) Learn(resolver string, ttl int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.expected[resolver]; !ok && len(h.expected) >= maxSources {
		return
	}
	h.expected[resolver] = ttl
}

// SetActive toggles enforcement.
func (h *HopCount) SetActive(on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.active = on
}

// Score implements Filter: known resolvers whose observed TTL deviates from
// the learned value by more than Tolerance are penalized. Unknown resolvers
// are not scored here (the allowlist filter covers them).
func (h *HopCount) Score(q *Query) float64 {
	h.mu.RLock()
	active := h.active
	want, known := h.expected[q.Resolver]
	h.mu.RUnlock()
	if !active || !known {
		return 0
	}
	d := q.IPTTL - want
	if d < 0 {
		d = -d
	}
	if d <= h.Tolerance {
		return 0
	}
	h.Flagged.Add(1)
	return h.Penalty
}
