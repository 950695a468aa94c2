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
	"sync/atomic"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/obs"
	"akamaidns/internal/simtime"
)

// Query is the filter-visible view of one incoming DNS query.
type Query struct {
	// Resolver is the source address key (one per resolver IP).
	Resolver string
	// ASN is the source AS (used only for reporting).
	ASN int
	// Qname is the case-folded wire-form question name. The socket server
	// sets it to the bytes its tiers routed on, which alias a per-worker
	// buffer: valid until ObserveAnswer for the query returns, so no filter
	// may keep it. Callers holding only a parsed name leave it nil and set
	// Name; filters read the name through qnameWire.
	Qname []byte
	Name  dnswire.Name
	Type  dnswire.Type
	// Zone is the authoritative zone matched for the question name (zero
	// when the server is not authoritative); set by the nameserver before
	// scoring.
	Zone dnswire.Name
	// IPTTL is the received packet's IP TTL.
	IPTTL int
	// Now is the virtual arrival time.
	Now simtime.Time
	// Score is the total penalty Pipeline.Score gave the query: 0 until it
	// is scored, and 0 for a calm query. Score sums into it filter by
	// filter, so a filter reads the penalty of those before it.
	Score float64
}

// qnameWire returns the folded wire-form question name: Qname when the
// caller set it, else Name rendered afresh. Only callers that carry Name
// alone pay for the render, one allocation of the name's length: a stack
// buffer would escape all the same, through the ZoneInfo interface call.
func (q *Query) qnameWire() []byte {
	if q.Qname != nil {
		return q.Qname
	}
	return q.Name.AppendWire(make([]byte, 0, q.Name.WireLen()))
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

// maxSources bounds every per-resolver table (RateLimit.buckets,
// Loyalty.seen, HopCount.expected): they are keyed by source addresses a
// flood of spoofed packets can vary at will.
const maxSources = 1 << 16

// Pipeline runs filters in order and sums penalties. Its filter list is
// fixed at construction, so reading it takes no lock.
type Pipeline struct {
	filters []Filter
	// zoneObservers learn per zone and see every answer; calmObservers
	// learn per resolver and see only calm ones (see ObserveAnswer).
	zoneObservers []AnswerObserver
	calmObservers []AnswerObserver
	allowlists    []*Allowlist
	// hits, once Instrument has published it, holds one per-filter hit
	// counter parallel to filters (incremented whenever the filter
	// contributes a penalty).
	hits atomic.Pointer[[]*obs.Counter]
}

// NewPipeline builds a pipeline over the given filters.
func NewPipeline(fs ...Filter) *Pipeline {
	p := &Pipeline{filters: fs}
	for _, f := range fs {
		if o, ok := f.(AnswerObserver); ok {
			if _, perZone := f.(*NXDomain); perZone {
				p.zoneObservers = append(p.zoneObservers, o)
			} else {
				p.calmObservers = append(p.calmObservers, o)
			}
		}
		if a, ok := f.(*Allowlist); ok {
			p.allowlists = append(p.allowlists, a)
		}
	}
	return p
}

// Instrument registers per-filter hit counters on reg
// (akamaidns_filter_hits_total{filter=...}). Counters are resolved once
// here, so scoring pays one atomic add per contributing filter.
func (p *Pipeline) Instrument(reg *obs.Registry) {
	hits := make([]*obs.Counter, len(p.filters))
	for i, f := range p.filters {
		hits[i] = reg.Counter(obs.MetricFilterHitsTotal,
			"Queries penalized by each scoring filter.", "filter", f.Name())
	}
	p.hits.Store(&hits)
}

// Allowlisted reports whether the resolver is on any Allowlist filter's
// historically-known set, regardless of enforcement state (the list itself
// is maintained continuously; only the penalty is gated on activation). The
// socket server's overload degradation ladder consults it to reserve the
// expensive slow path for known resolvers when the machine nears its
// in-flight ceiling (§5.2: shed by reputation, not at random).
func (p *Pipeline) Allowlisted(resolver string) bool {
	for _, a := range p.allowlists {
		if a.Contains(resolver) {
			return true
		}
	}
	return false
}

// ObserveAnswer forwards one answered query to the filters that learn from
// answers. It is the filters' only feedback path: a server calls it once per
// answer it sends and wires no filter by hand. One rule decides who learns:
// the NXDOMAIN filter's per-zone tree sees every answer, since the flood is
// what it learns from; a per-resolver learner (Loyalty) learns only from an
// answer whose query scored 0, so a penalised query — a spoofed flood
// source, a bot — never becomes a resolver the filter vouches for.
func (p *Pipeline) ObserveAnswer(q *Query, nxdomain bool) {
	for _, o := range p.zoneObservers {
		o.ObserveAnswer(q, nxdomain)
	}
	if q.Score != 0 {
		return
	}
	for _, o := range p.calmObservers {
		o.ObserveAnswer(q, nxdomain)
	}
}

// Score runs every filter and returns the total penalty, which it also
// leaves in q.Score for ObserveAnswer. The second result is always nil:
// per-filter hits are counted on akamaidns_filter_hits_total, and no
// breakdown is built per query.
func (p *Pipeline) Score(q *Query) (float64, map[string]float64) {
	hits := p.hits.Load()
	q.Score = 0
	for i, f := range p.filters {
		if s := f.Score(q); s > 0 {
			q.Score += s
			if hits != nil {
				(*hits)[i].Inc()
			}
		}
	}
	return q.Score, nil
}
