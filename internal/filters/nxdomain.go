package filters

import (
	"maps"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/simtime"
)

// ZoneInfo is the NXDOMAIN filter's view of the hosted zones: the paper's
// "tree of valid hostnames" (§4.3.4). The nameserver adapts its zone store
// to this interface.
type ZoneInfo interface {
	// CanExist reports whether a query for the case-folded wire-form name
	// qname, of any type, could get an answer other than NXDOMAIN from the
	// zone that serves it: the name is an owner or empty non-terminal, sits
	// at or below a delegation point, or is covered by a wildcard. It must
	// not keep qname.
	CanExist(qname []byte) bool
}

// NXDomainMode is vestigial: the filter builds no tree (the zones' compiled
// views are the tree), so there is no strategy to select. The type and its
// one value remain only so that callers of NewNXDomain keep compiling.
type NXDomainMode int

// PerHotZone is the only mode.
const PerHotZone NXDomainMode = 0

// NXDomain is the random-subdomain-attack filter of §4.3.4 (attack class
// 3). It tracks NXDOMAIN responses per zone; once a zone crosses the
// threshold, queries for names that cannot exist in that zone are
// penalized. NXDOMAIN responses are rare in legitimate traffic (~0.5% of
// responses), so false positives are few.
type NXDomain struct {
	source ZoneInfo

	// Threshold is the NXDOMAIN count within Window that makes a zone hot.
	Threshold int
	// Window is the counting window.
	Window simtime.Time
	// Penalty is the score for names that cannot exist in a hot zone.
	Penalty float64

	// hot is the set of zones that crossed the threshold, read by every
	// Score without a lock. The map is never written: a zone turning hot
	// publishes a copy holding it. Hot zones stay hot, so that happens once
	// per zone.
	hot atomic.Pointer[map[dnswire.Name]struct{}]
	// mu guards counts, the NXDOMAIN windows of zones not yet hot.
	mu     sync.Mutex
	counts map[dnswire.Name]*nxWindow

	// Flagged counts penalized queries.
	Flagged atomic.Uint64
}

// nxWindow is one zone's NXDOMAIN count in the current window.
type nxWindow struct {
	start simtime.Time
	n     int
}

// NewNXDomain creates the filter over the given zone source. The mode
// argument is ignored (see NXDomainMode).
func NewNXDomain(source ZoneInfo, _ NXDomainMode) *NXDomain {
	f := &NXDomain{
		source:    source,
		Threshold: 100,
		Window:    10 * simtime.Second,
		Penalty:   PenaltyNXDomain,
		counts:    make(map[dnswire.Name]*nxWindow),
	}
	f.hot.Store(&map[dnswire.Name]struct{}{})
	return f
}

// Name implements Filter.
func (f *NXDomain) Name() string { return "nxdomain" }

// isHot reports whether zone's impossible names are penalized.
func (f *NXDomain) isHot(zone dnswire.Name) bool {
	_, ok := (*f.hot.Load())[zone]
	return ok
}

// ObserveResponse counts one response from zone (the matched zone) towards
// its NXDOMAIN window. Only an NXDOMAIN from a zone that is not hot yet
// takes the lock.
func (f *NXDomain) ObserveResponse(zone dnswire.Name, nxdomain bool, now simtime.Time) {
	if zone.IsZero() || !nxdomain || f.isHot(zone) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	hot := *f.hot.Load()
	if _, ok := hot[zone]; ok {
		return
	}
	z := f.counts[zone]
	if z == nil {
		z = &nxWindow{start: now}
		f.counts[zone] = z
	} else if now.Sub(z.start) >= f.Window.Duration() {
		z.start, z.n = now, 0
	}
	if z.n++; z.n < f.Threshold {
		return
	}
	next := maps.Clone(hot)
	next[zone] = struct{}{}
	f.hot.Store(&next)
	delete(f.counts, zone)
}

// ObserveAnswer implements AnswerObserver.
func (f *NXDomain) ObserveAnswer(q *Query, nxdomain bool) {
	f.ObserveResponse(q.Zone, nxdomain, q.Now)
}

// HotZones returns the zones whose impossible names are being penalized.
func (f *NXDomain) HotZones() []dnswire.Name {
	var out []dnswire.Name
	for name := range *f.hot.Load() {
		out = append(out, name)
	}
	return out
}

// Score implements Filter. The query must carry its matched zone.
func (f *NXDomain) Score(q *Query) float64 {
	if q.Zone.IsZero() || !f.isHot(q.Zone) || f.source.CanExist(q.qnameWire()) {
		return 0
	}
	f.Flagged.Add(1)
	return f.Penalty
}
