package filters

import (
	"sync"
	"sync/atomic"

	"akamaidns/internal/simtime"
)

// Loyalty is the per-nameserver filter of §4.3.4 (attack class 5, spoofed
// source IP and IP TTL). Each nameserver independently tracks the resolvers
// that historically send it queries; because anycast routes each resolver to
// a particular PoP, an attacker who spoofs an allowlisted resolver's address
// and TTL must *also* be routed to the same PoP for its traffic to pass.
type Loyalty struct {
	mu sync.RWMutex
	// seen maps resolver -> last-observed time, learned during calm traffic.
	seen map[string]simtime.Time
	// sweepAt is when the oldest resolver the last sweep of a full seen kept
	// passes Retention: a flood of newcomers is swept once per expiry.
	sweepAt simtime.Time
	active  bool

	// Retention drops resolvers not seen for this long.
	Retention simtime.Time
	// Penalty is the score for never-seen resolvers.
	Penalty float64
	// Flagged counts penalized queries.
	Flagged atomic.Uint64
}

// NewLoyalty returns a learning, non-enforcing loyalty filter with 7-day
// retention (Figure 4 shows heavy-hitter resolvers stable over a week).
func NewLoyalty() *Loyalty {
	return &Loyalty{
		seen:      make(map[string]simtime.Time),
		Retention: 7 * simtime.Day,
		Penalty:   PenaltyLoyalty,
	}
}

// Name implements Filter.
func (l *Loyalty) Name() string { return "loyalty" }

// Observe records that a resolver was seen at this nameserver (call on each
// accepted query while learning is on). A full set first forgets resolvers
// past Retention; if it is full all the same, the newcomer is not learned,
// so a flood of spoofed sources cannot push the incumbents out.
func (l *Loyalty) Observe(resolver string, now simtime.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.seen[resolver]; !ok && len(l.seen) >= maxSources {
		if now < l.sweepAt {
			return
		}
		oldest := now
		for r, last := range l.seen {
			if now.Sub(last) > l.Retention.Duration() {
				delete(l.seen, r)
			} else {
				oldest = min(oldest, last)
			}
		}
		l.sweepAt = oldest.Add(l.Retention.Duration() + 1)
		if len(l.seen) >= maxSources {
			return
		}
	}
	l.seen[resolver] = now
}

// ObserveAnswer implements AnswerObserver: an answered query is an accepted
// one. A Pipeline forwards only answers to calm queries.
func (l *Loyalty) ObserveAnswer(q *Query, _ bool) { l.Observe(q.Resolver, q.Now) }

// SetActive toggles enforcement.
func (l *Loyalty) SetActive(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.active = on
}

// Known reports whether the resolver is in the loyalty set (subject to
// retention at query time).
func (l *Loyalty) Known(resolver string, now simtime.Time) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	last, ok := l.seen[resolver]
	return ok && now.Sub(last) <= l.Retention.Duration()
}

// Score implements Filter.
func (l *Loyalty) Score(q *Query) float64 {
	l.mu.RLock()
	active := l.active
	last, ok := l.seen[q.Resolver]
	l.mu.RUnlock()
	if !active {
		return 0
	}
	if ok && q.Now.Sub(last) <= l.Retention.Duration() {
		return 0
	}
	l.Flagged.Add(1)
	return l.Penalty
}
