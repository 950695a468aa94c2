package filters

import (
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/simtime"
)

// ZoneInfo is the NXDOMAIN filter's view of the hosted zones: the paper's
// "tree of valid hostnames" (§4.3.4). The nameserver adapts its zone store
// to this interface.
type ZoneInfo interface {
	// CanExist reports whether a query for name, of any type, could get an
	// answer other than NXDOMAIN from the zone that serves it: the name is
	// an owner or empty non-terminal, sits at or below a delegation point,
	// or is covered by a wildcard.
	CanExist(name dnswire.Name) bool
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

	mu    sync.RWMutex
	zones map[dnswire.Name]*nxZone

	// Flagged counts penalized queries.
	Flagged atomic.Uint64
}

// nxZone is one zone's NXDOMAIN count in the current window, and whether it
// has ever crossed the threshold: hot zones stay hot.
type nxZone struct {
	start simtime.Time
	n     int
	hot   bool
}

// NewNXDomain creates the filter over the given zone source. The mode
// argument is ignored (see NXDomainMode).
func NewNXDomain(source ZoneInfo, _ NXDomainMode) *NXDomain {
	return &NXDomain{
		source:    source,
		Threshold: 100,
		Window:    10 * simtime.Second,
		Penalty:   PenaltyNXDomain,
		zones:     make(map[dnswire.Name]*nxZone),
	}
}

// Name implements Filter.
func (f *NXDomain) Name() string { return "nxdomain" }

// ObserveResponse counts one response from zone (the matched zone) towards
// its NXDOMAIN window.
func (f *NXDomain) ObserveResponse(zone dnswire.Name, nxdomain bool, now simtime.Time) {
	if zone.IsZero() || !nxdomain {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	z := f.zones[zone]
	if z == nil {
		z = &nxZone{start: now}
		f.zones[zone] = z
	} else if now.Sub(z.start) >= f.Window.Duration() {
		z.start, z.n = now, 0
	}
	z.n++
	if z.n >= f.Threshold {
		z.hot = true
	}
}

// ObserveAnswer implements AnswerObserver.
func (f *NXDomain) ObserveAnswer(q *Query, nxdomain bool) {
	f.ObserveResponse(q.Zone, nxdomain, q.Now)
}

// HotZones returns the zones whose impossible names are being penalized.
func (f *NXDomain) HotZones() []dnswire.Name {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []dnswire.Name
	for name, z := range f.zones {
		if z.hot {
			out = append(out, name)
		}
	}
	return out
}

// Score implements Filter. The query must carry its matched zone.
func (f *NXDomain) Score(q *Query) float64 {
	if q.Zone.IsZero() {
		return 0
	}
	f.mu.RLock()
	z := f.zones[q.Zone]
	hot := z != nil && z.hot
	f.mu.RUnlock()
	if !hot || f.source.CanExist(q.Name) {
		return 0
	}
	f.Flagged.Add(1)
	return f.Penalty
}
