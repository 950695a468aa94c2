// Package filters implements the query scoring pipeline of §4.3.3–§4.3.4:
// each incoming query passes through a sequence of filters, each of which
// may add a penalty score; the total score determines which priority queue
// the query lands in (or outright discard at S ≥ Smax).
//
// The five production filters are implemented: per-resolver leaky-bucket
// rate limiting, the allowlist of historically-known resolvers, the
// NXDOMAIN filter over the zones' valid-hostname trees, hop-count
// (IP TTL) filtering, and the per-nameserver loyalty filter.
package filters

import (
	"sync"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/obs"
	"akamaidns/internal/simtime"
)

// Query is the filter-visible view of one incoming DNS query.
type Query struct {
	// Resolver is the source address key (one per resolver IP).
	Resolver string
	// ASN is the source AS (used only for reporting).
	ASN  int
	Name dnswire.Name
	Type dnswire.Type
	// Zone is the authoritative zone matched for Name (zero when the
	// server is not authoritative); set by the nameserver before scoring.
	Zone dnswire.Name
	// IPTTL is the received packet's IP TTL.
	IPTTL int
	// Now is the virtual arrival time.
	Now simtime.Time
}

// Filter scores one query. Implementations must be safe for concurrent use:
// the same pipeline serves the event-driven simulation and the real UDP
// server.
type Filter interface {
	// Name identifies the filter in metrics.
	Name() string
	// Score returns this filter's penalty contribution for q (0 = clean).
	Score(q *Query) float64
}

// AnswerObserver is implemented by filters that learn from the answers the
// server gives, not only from the queries it scores.
type AnswerObserver interface {
	// ObserveAnswer is told of one answered query — q as it was scored,
	// Zone being the zone that answered — and whether the answer was
	// NXDOMAIN.
	ObserveAnswer(q *Query, nxdomain bool)
}

// Default penalty weights. Each filter's contribution is configurable at
// construction; these are the platform defaults used by the experiments.
const (
	PenaltyRate      = 40
	PenaltyAllowlist = 30
	PenaltyNXDomain  = 60
	PenaltyHopCount  = 50
	PenaltyLoyalty   = 20
)

// Pipeline runs filters in order and sums penalties.
type Pipeline struct {
	mu      sync.RWMutex
	filters []Filter
	// hits, when instrumented, holds one per-filter hit counter parallel
	// to filters (incremented whenever the filter contributes a penalty).
	hits []*obs.Counter
	reg  *obs.Registry
}

// NewPipeline builds a pipeline over the given filters.
func NewPipeline(fs ...Filter) *Pipeline {
	return &Pipeline{filters: fs}
}

// Instrument registers per-filter hit counters on reg
// (akamaidns_filter_hits_total{filter=...}). Counters are resolved once
// here, so scoring pays one atomic add per contributing filter.
func (p *Pipeline) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.hits = make([]*obs.Counter, len(p.filters))
	for i, f := range p.filters {
		p.hits[i] = filterHitCounter(reg, f)
	}
}

func filterHitCounter(reg *obs.Registry, f Filter) *obs.Counter {
	return reg.Counter(obs.MetricFilterHitsTotal,
		"Queries penalized by each scoring filter.", "filter", f.Name())
}

// Append adds a filter at the end of the pipeline.
func (p *Pipeline) Append(f Filter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.filters = append(p.filters, f)
	if p.reg != nil {
		p.hits = append(p.hits, filterHitCounter(p.reg, f))
	}
}

// Allowlisted reports whether the resolver is on any Allowlist filter's
// historically-known set, regardless of enforcement state (the list itself
// is maintained continuously; only the penalty is gated on activation). The
// socket server's overload degradation ladder consults it to reserve the
// expensive slow path for known resolvers when the machine nears its
// in-flight ceiling (§5.2: shed by reputation, not at random).
func (p *Pipeline) Allowlisted(resolver string) bool {
	p.mu.RLock()
	fs := p.filters
	p.mu.RUnlock()
	for _, f := range fs {
		if a, ok := f.(*Allowlist); ok && a.Contains(resolver) {
			return true
		}
	}
	return false
}

// ObserveAnswer forwards one answered query to every filter that learns from
// answers. It is the filters' only feedback path: a server calls it once per
// answer it sends and wires no filter by hand.
func (p *Pipeline) ObserveAnswer(q *Query, nxdomain bool) {
	p.mu.RLock()
	fs := p.filters
	p.mu.RUnlock()
	for _, f := range fs {
		if o, ok := f.(AnswerObserver); ok {
			o.ObserveAnswer(q, nxdomain)
		}
	}
}

// Score runs every filter and returns the total penalty plus the per-filter
// breakdown (keyed by filter name; zero contributions omitted).
func (p *Pipeline) Score(q *Query) (float64, map[string]float64) {
	p.mu.RLock()
	fs := p.filters
	hits := p.hits
	p.mu.RUnlock()
	total := 0.0
	var detail map[string]float64
	for i, f := range fs {
		s := f.Score(q)
		if s > 0 {
			total += s
			if detail == nil {
				detail = make(map[string]float64, 2)
			}
			detail[f.Name()] += s
			if hits != nil {
				hits[i].Inc()
			}
		}
	}
	return total, detail
}
