package filters

import "sync"

// Allowlist penalizes queries from resolvers not historically known to the
// platform (§4.3.4, attack class 2 at scale). Because the resolvers that
// drive most queries are highly consistent over time (§2: week-to-week mean
// 92% list overlap), the allowlist changes only gradually. The filter is
// activated only when an attack's cumulative volume and source diversity
// warrant it.
type Allowlist struct {
	mu      sync.RWMutex
	known   map[string]bool
	active  bool
	Penalty float64
	// Misses counts scored queries from unknown resolvers while active.
	Misses uint64
}

// NewAllowlist returns an inactive allowlist.
func NewAllowlist() *Allowlist {
	return &Allowlist{known: make(map[string]bool), Penalty: PenaltyAllowlist}
}

// Name implements Filter.
func (a *Allowlist) Name() string { return "allowlist" }

// Add marks resolvers as historically known.
func (a *Allowlist) Add(resolvers ...string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range resolvers {
		a.known[r] = true
	}
}

// Contains reports membership.
func (a *Allowlist) Contains(resolver string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.known[resolver]
}

// SetActive toggles enforcement. When inactive the filter scores nothing
// (the preferred state outside attacks).
func (a *Allowlist) SetActive(on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.active = on
}

// Score implements Filter.
func (a *Allowlist) Score(q *Query) float64 {
	a.mu.RLock()
	active, known := a.active, a.known[q.Resolver]
	a.mu.RUnlock()
	if !active || known {
		return 0
	}
	a.mu.Lock()
	a.Misses++
	a.mu.Unlock()
	return a.Penalty
}
