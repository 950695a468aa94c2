package propagate

import (
	"sync"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// Source is the controller side of the pull protocol: it answers catalog,
// IXFR, and AXFR requests from the control plane's live store and its
// bounded version history. It is safe for concurrent use.
//
// Versions reach the history two ways: the control plane records each
// committed version explicitly (ctlplane.Config.History), and the source
// lazily records any installed version whose serial is not the newest
// retained one (covering versions swapped into the store directly, such as
// heartbeat serial bumps). Either way the serial discipline holds: a new
// version at the same serial is invisible to propagation, exactly as in
// real DNS.
type Source struct {
	store *zone.Store
	hist  *zone.History
	mu    sync.Mutex // serializes lazy history sync
}

// NewSource serves the pull protocol from store, using hist for deltas.
func NewSource(store *zone.Store, hist *zone.History) *Source {
	if hist == nil {
		hist = zone.NewHistory(8)
	}
	return &Source{store: store, hist: hist}
}

// sync records any installed version whose serial is not the newest
// retained one. The history keeps the store's own zone, copying nothing: an
// installed version never changes.
func (s *Source) sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, serial := range s.store.Serials() {
		if s.hist.Latest(origin) != serial {
			if z := s.store.Get(origin); z != nil {
				s.hist.Record(z)
			}
		}
	}
}

// Handle answers one request synchronously. Transports call it at
// delivery time.
func (s *Source) Handle(req Request) *Response {
	s.sync()
	resp := &Response{Op: req.Op, Origin: req.Origin}
	switch req.Op {
	case OpCatalog:
		resp.Serials = s.store.Serials()
	case OpIXFR:
		s.handleIXFR(req, resp)
	case OpAXFR:
		s.handleAXFR(req, resp)
	}
	resp.Seal()
	return resp
}

func (s *Source) handleIXFR(req Request, resp *Response) {
	d, st := s.hist.DeltaFrom(req.Origin, req.FromSerial)
	if st != zone.DeltaOK {
		// Evicted, unknown, or no history at all: the client cannot be
		// served a delta and must take a full transfer.
		resp.Resync = true
		return
	}
	target := s.hist.Version(req.Origin, d.ToSerial)
	if target == nil {
		// The target version raced out of the history between DeltaFrom
		// and here; the delta cannot be content-verified, so resync.
		resp.Resync = true
		return
	}
	resp.Delta = d
	resp.ToSerial = d.ToSerial
	resp.ZoneSum = ZoneSum(target)
}

func (s *Source) handleAXFR(req Request, resp *Response) {
	recs := s.store.Transfer(req.Origin)
	if recs == nil {
		// Origin gone (or never served): nil Records tells the client to
		// delete its copy.
		return
	}
	resp.Records = recs
	if soa, ok := recs[0].(*dnswire.SOA); ok {
		resp.ToSerial = soa.Serial
	}
	// Transfer frames SOA ... SOA; the zone content is the stream minus
	// the trailing SOA, and its multiset hash equals the hash of the
	// reassembled zone on the client.
	resp.ZoneSum = hashStr("zone:"+req.Origin.String()) ^ recordsSum(recs[:len(recs)-1])
}
