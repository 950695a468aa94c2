package filters

// Methods only this package's tests call. Nothing outside the tests
// does, so they live beside them.

// Remove forgets resolvers.
func (a *Allowlist) Remove(resolvers ...string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range resolvers {
		delete(a.known, r)
	}
}

// Len reports the list size.
func (a *Allowlist) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.known)
}

// Expected reports the learned TTL, if any.
func (h *HopCount) Expected(resolver string) (int, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	t, ok := h.expected[resolver]
	return t, ok
}

// Len reports the loyalty set size.
func (l *Loyalty) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.seen)
}

// Limit reports the effective qps limit for a resolver.
func (r *RateLimit) Limit(resolver string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.limitLocked(resolver)
}
