package zone

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// This file implements the machinery behind incremental zone transfer
// (IXFR, RFC 1995): record-set diffs between zone versions and a bounded
// per-origin version history that an authoritative server keeps so
// secondaries can fetch deltas instead of full zones.

// Delta is the change set between two zone versions.
type Delta struct {
	FromSerial, ToSerial uint32
	// Deleted and Added are whole records (owner+type+rdata granularity),
	// excluding the SOA (IXFR frames serials via SOA records explicitly).
	Deleted, Added []dnswire.RR
}

// Empty reports whether the delta carries no record changes.
func (d Delta) Empty() bool { return len(d.Deleted) == 0 && len(d.Added) == 0 }

// Diff computes the delta from old to new: a merge walk over the two
// zones' records in canonical order. Records are the same when their owner,
// type and packed body are; the delta lists them in canonical order.
func Diff(old, new *Zone) Delta {
	a, b := old.view.entries(nil), new.view.entries(nil)
	return Delta{
		FromSerial: old.Serial(), ToSerial: new.Serial(),
		Deleted: missing(a, b), Added: missing(b, a),
	}
}

// missing decodes the records of a that b lacks; both are in canonical
// order.
func missing(a, b []entry) []dnswire.RR {
	var out []dnswire.RR
	for _, e := range a {
		for len(b) > 0 && compareEntry(b[0], e) < 0 {
			b = b[1:]
		}
		if setIndex(b, e) < 0 {
			rr, _ := decode(ownerName(e.owner), e.body)
			out = append(out, rr)
		}
	}
	return out
}

// setIndex returns the index of e's body among the entries that start set,
// the run of e's owner and type, or -1.
func setIndex(set []entry, e entry) int {
	for i, have := range set {
		if compareEntry(have, e) != 0 {
			break
		}
		if bytes.Equal(have.body, e.body) {
			return i
		}
	}
	return -1
}

// Apply produces a new zone by applying the delta to base — how the next
// version of a zone is built; an empty delta re-versions base at
// d.ToSerial. Base's records keep their order and are copied from its arena
// as they are, never decoded; added ones follow them. Records match by
// owner, type and packed body, as Diff compares them. It fails when a
// deleted record is absent (the delta does not chain from this version).
func Apply(base *Zone, d Delta) (*Zone, error) {
	if base.Serial() != d.FromSerial {
		return nil, fmt.Errorf("zone: delta chains from serial %d, zone is at %d", d.FromSerial, base.Serial())
	}
	// SOA: base's SOA advanced to the new serial.
	soa := base.SOA()
	if soa == nil {
		return nil, fmt.Errorf("zone: base has no SOA")
	}
	soa.Serial = d.ToSerial
	origin := base.Origin()
	sc := getScratch()
	defer putScratch(sc)
	// The records to delete, packed and sorted as a zone's are: each must
	// match one of base's, once.
	for _, rr := range d.Deleted {
		if err := sc.add(origin, rr); err != nil {
			return nil, fmt.Errorf("zone: delta deletes missing record %s", rr)
		}
	}
	deleted := canonical(slices.Clone(sc.ents))
	if len(deleted) < len(sc.ents) {
		return nil, errors.New("zone: delta deletes a record twice")
	}
	matched := make([]bool, len(deleted))
	sc.ents = sc.ents[:0]
	if err := sc.add(origin, soa); err != nil {
		return nil, err
	}
	j := 0
	for _, e := range base.view.entries(nil) {
		for j < len(deleted) && compareEntry(deleted[j], e) < 0 {
			j++
		}
		if i := setIndex(deleted[j:], e); i >= 0 {
			matched[j+i] = true
			continue
		}
		sc.ents = append(sc.ents, e)
	}
	if i := slices.Index(matched, false); i >= 0 {
		rr, _ := decode(ownerName(deleted[i].owner), deleted[i].body)
		return nil, fmt.Errorf("zone: delta deletes missing record %s", rr)
	}
	for _, rr := range d.Added {
		if err := sc.add(origin, rr); err != nil {
			return nil, err
		}
	}
	return sc.zone(origin), nil
}

// History retains recent versions of zones so deltas between any retained
// serial and the current one can be served. It is safe for concurrent use.
type History struct {
	mu sync.Mutex
	// per origin: recorded versions in serial order, newest last.
	versions map[dnswire.Name][]*Zone
	// Keep bounds retained versions per origin.
	Keep   int
	writes atomic.Uint64 // Record calls so far
}

// NewHistory retains up to keep versions per origin. keep <= 1 —
// including zero and negative values — is clamped to 2, the smallest
// history that can serve a delta (a from-version and a to-version).
func NewHistory(keep int) *History {
	if keep < 2 {
		keep = 2
	}
	return &History{versions: make(map[dnswire.Name][]*Zone), Keep: keep}
}

// Record keeps a zone version (call after each serial change): the history
// holds the zone itself. Recording the same serial twice replaces the
// version.
func (h *History) Record(z *Zone) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vs := h.versions[z.Origin()]
	if n := len(vs); n > 0 && vs[n-1].Serial() == z.Serial() {
		vs[n-1] = z
	} else {
		vs = append(vs, z)
	}
	if len(vs) > h.Keep {
		vs = vs[len(vs)-h.Keep:]
	}
	h.versions[z.Origin()] = vs
	h.writes.Add(1)
}

// Writes counts the Record calls so far.
func (h *History) Writes() uint64 { return h.writes.Load() }

// DeltaStatus classifies a DeltaFrom result so callers can tell "this
// origin has no history at all" apart from "the requested serial fell
// out of the retained window" — both need different handling (the
// former may be a misdirected request; the latter unambiguously means
// the client must resync with a full transfer).
type DeltaStatus int

const (
	// DeltaOK: the delta chains from the requested serial to the newest
	// retained version (it may be empty when already current).
	DeltaOK DeltaStatus = iota
	// DeltaNoHistory: no versions are retained for the origin.
	DeltaNoHistory
	// DeltaResync: fromSerial is not a retained version — evicted,
	// never recorded, or ahead of the newest retained serial. The
	// caller cannot be served a delta and must take a full transfer.
	DeltaResync
)

func (s DeltaStatus) String() string {
	switch s {
	case DeltaOK:
		return "ok"
	case DeltaNoHistory:
		return "no-history"
	case DeltaResync:
		return "resync"
	default:
		return fmt.Sprintf("DeltaStatus(%d)", int(s))
	}
}

// DeltaFrom returns the combined delta from the retained version at
// fromSerial to the newest retained version. The status disambiguates
// failure: DeltaNoHistory when the origin has no retained versions at
// all, DeltaResync when versions exist but fromSerial is not among them
// (evicted or unknown) — the server answers with a full transfer then.
func (h *History) DeltaFrom(origin dnswire.Name, fromSerial uint32) (Delta, DeltaStatus) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vs := h.versions[origin]
	if len(vs) == 0 {
		return Delta{}, DeltaNoHistory
	}
	var from *Zone
	for _, v := range vs {
		if v.Serial() == fromSerial {
			from = v
		}
	}
	if from == nil {
		return Delta{}, DeltaResync
	}
	return Diff(from, vs[len(vs)-1]), DeltaOK
}

// Version returns the retained version at exactly serial, or nil when it
// is not retained.
func (h *History) Version(origin dnswire.Name, serial uint32) *Zone {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range h.versions[origin] {
		if v.Serial() == serial {
			return v
		}
	}
	return nil
}

// Latest returns the newest retained serial for origin (0 when none).
func (h *History) Latest(origin dnswire.Name) uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	vs := h.versions[origin]
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1].Serial()
}
