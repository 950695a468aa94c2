package zone

import (
	"fmt"
	"sort"
	"sync"

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

// Diff computes the delta from old to new. Records are compared by their
// canonical presentation rendering.
func Diff(old, new *Zone) Delta {
	d := Delta{FromSerial: old.Serial(), ToSerial: new.Serial()}
	oldSet := renderSet(old)
	newSet := renderSet(new)
	for key, rr := range oldSet {
		if _, ok := newSet[key]; !ok {
			d.Deleted = append(d.Deleted, rr)
		}
	}
	for key, rr := range newSet {
		if _, ok := oldSet[key]; !ok {
			d.Added = append(d.Added, rr)
		}
	}
	sortRRs(d.Deleted)
	sortRRs(d.Added)
	return d
}

func renderSet(z *Zone) map[string]dnswire.RR {
	out := make(map[string]dnswire.RR)
	for _, rr := range z.AllRecords() {
		if _, isSOA := rr.(*dnswire.SOA); isSOA {
			continue
		}
		out[rr.String()] = rr
	}
	return out
}

func sortRRs(rrs []dnswire.RR) {
	sort.Slice(rrs, func(i, j int) bool { return rrs[i].String() < rrs[j].String() })
}

// Apply produces a new zone by applying the delta to base — how the next
// version of a published zone is built. It fails when a deleted record is
// absent (the delta does not chain from this version).
func Apply(base *Zone, d Delta) (*Zone, error) {
	if base.Serial() != d.FromSerial {
		return nil, fmt.Errorf("zone: delta chains from serial %d, zone is at %d", d.FromSerial, base.Serial())
	}
	out := New(base.Origin())
	have := renderSet(base)
	for _, rr := range d.Deleted {
		key := rr.String()
		if _, ok := have[key]; !ok {
			return nil, fmt.Errorf("zone: delta deletes missing record %s", key)
		}
		delete(have, key)
	}
	for _, rr := range d.Added {
		have[rr.String()] = rr.Copy()
	}
	// SOA: base's SOA advanced to the new serial.
	soa := base.SOA()
	if soa == nil {
		return nil, fmt.Errorf("zone: base has no SOA")
	}
	soa.Serial = d.ToSerial
	if err := out.add(soa); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(have))
	for k := range have {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := out.add(have[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// History retains recent versions of zones so deltas between any retained
// serial and the current one can be served. It is safe for concurrent use.
type History struct {
	mu sync.Mutex
	// per origin: published versions in serial order, newest last.
	versions map[dnswire.Name][]*Zone
	// Keep bounds retained versions per origin.
	Keep int
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

// Record keeps a zone version (call after each serial change) and publishes
// it: the history holds the zone itself, which from then on never changes.
// Recording the same serial twice replaces the version.
func (h *History) Record(z *Zone) {
	z.publish()
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
}

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
// is not retained. The returned zone is published: it never changes.
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
