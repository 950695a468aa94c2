// Package zone implements the authoritative zone store behind the platform's
// nameservers: RRset storage, the RFC 1034 §4.3.2 lookup algorithm (exact
// match, CNAME chasing, wildcard synthesis, delegation, NXDOMAIN vs NODATA),
// a master-file parser, and AXFR-style snapshots.
package zone

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// rrKey identifies an RRset within a zone.
type rrKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// compareKey orders a record against an RRset key: owner in canonical order,
// then type.
func compareKey(rr dnswire.RR, k rrKey) int {
	h := rr.Header()
	if h.Name != k.name {
		return h.Name.Compare(k.name)
	}
	return cmp.Compare(h.Type, k.typ)
}

func keyOf(rr dnswire.RR) rrKey {
	h := rr.Header()
	return rrKey{h.Name, h.Type}
}

// Zone is one authoritative zone: an apex name and the records at or below
// it. A zone has one lifecycle: built (Add, SetSerial), then published — by
// Tx.Put installing it or History.Record keeping it — then replaced. A
// published zone is a version and never changes: the next version is a new
// zone (Apply builds one from a Delta) swapped in through Store.Update. A
// Zone is safe for concurrent lookups interleaved with the edits that build
// it.
type Zone struct {
	mu     sync.RWMutex
	origin dnswire.Name
	// originWire is the origin's wire-form routing key, rendered once at
	// construction so store router republishes never re-encode names.
	originWire string
	// recs is the zone at rest: every record in one slab. Sorted, it is in
	// canonical order — owner (Name.Compare), then type, then insertion
	// order — and holds no duplicate and at most one SOA. Add appends and
	// leaves the slab unsorted; the first read after it sorts. The records
	// are shared with compiled views and never written through. Empty
	// non-terminals are not stored: a name exists iff the record at its
	// lower bound is at or below it.
	recs   []dnswire.RR
	sorted bool
	// published marks a version: Add and SetSerial panic once it is set.
	published bool
	// store is the Store the zone is installed in (nil otherwise), whose
	// view counters the zone's compile moves.
	store *Store
	// view is the compiled read-only snapshot (see view.go), dropped by every
	// edit of a free zone and lazily compiled by the next View() caller — at
	// most once after the zone is published.
	view atomic.Pointer[View]
}

// New creates an empty zone rooted at origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		origin:     origin,
		originWire: string(origin.AppendWire(nil)),
		sorted:     true,
	}
}

// Origin returns the zone apex.
func (z *Zone) Origin() dnswire.Name { return z.origin }

// setStore moves the zone into s (out of any store, with nil), carrying its
// published view's bytes from the old store's gauge to the new one's.
func (z *Zone) setStore(s *Store) {
	z.mu.Lock()
	size := int64(z.ViewBytes())
	if z.store != nil {
		z.store.viewBytes.Add(-size)
	}
	if s != nil {
		s.viewBytes.Add(size)
	}
	z.store = s
	z.mu.Unlock()
}

// publish makes the zone a version: from now on it never changes.
func (z *Zone) publish() {
	z.mu.Lock()
	z.published = true
	z.mu.Unlock()
}

// editLocked readies the zone for an edit — op names it — and drops the
// compiled view. Editing a published version is a programming error. Callers
// hold z.mu exclusively, so no concurrent View() call can republish a stale
// snapshot after the drop.
func (z *Zone) editLocked(op string) {
	if z.published {
		panic(fmt.Sprintf("zone %s: %s on a published version; build the next version with zone.Apply and Put it", z.origin, op))
	}
	z.view.Store(nil)
}

// rlockSorted takes the read lock with the slab sorted, sorting it first —
// under the write lock — when an Add has left it unsorted.
func (z *Zone) rlockSorted() {
	z.mu.RLock()
	for !z.sorted {
		z.mu.RUnlock()
		z.mu.Lock()
		z.sortLocked()
		z.mu.Unlock()
		z.mu.RLock()
	}
}

// sortLocked puts an unsorted slab into its sorted state: a stable sort
// (O(n log n) compares whatever order the records came in), then one pass
// that drops duplicate records (same owner, type and rendering; the first
// stays) and all but the last apex SOA, into an exactly sized slab. z.mu held
// exclusively.
func (z *Zone) sortLocked() {
	if z.sorted {
		return
	}
	recs := z.recs
	slices.SortStableFunc(recs, func(a, b dnswire.RR) int { return compareKey(a, keyOf(b)) })
	out := recs[:0]
	var seen []string // renderings of the current set, once it has a second record
	for i, set := 0, 0; i < len(recs); i++ {
		rr := recs[i]
		if i == 0 || keyOf(recs[i-1]) != keyOf(rr) {
			set, seen = len(out), seen[:0]
		} else if rr.Header().Type == dnswire.TypeSOA {
			out = out[:set]
		} else {
			if len(seen) == 0 {
				for _, have := range out[set:] {
					seen = append(seen, have.String())
				}
			}
			render := rr.String()
			if slices.Contains(seen, render) {
				continue
			}
			seen = append(seen, render)
		}
		out = append(out, rr)
	}
	z.recs = append(make([]dnswire.RR, 0, len(out)), out...)
	z.sorted = true
}

// rangeLocked returns where in the sorted slab the RRset (name, typ) sits:
// a binary search for its lower bound, then a scan to its end. z.mu held.
func (z *Zone) rangeLocked(name dnswire.Name, typ dnswire.Type) (lo, hi int) {
	k := rrKey{name, typ}
	lo, _ = slices.BinarySearchFunc(z.recs, k, compareKey)
	for hi = lo; hi < len(z.recs) && keyOf(z.recs[hi]) == k; hi++ {
	}
	return lo, hi
}

// setLocked returns the zone's own (shared, uncopied) records for (name,
// typ). The three-index slice keeps appending callers out of the slab.
func (z *Zone) setLocked(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	lo, hi := z.rangeLocked(name, typ)
	return z.recs[lo:hi:hi]
}

// soaLocked returns the zone's own SOA record and its place in the sorted
// slab, or nil. The apex sorts first and the SOA among its lowest types, so
// this reads a record or three. z.mu held.
func (z *Zone) soaLocked() (*dnswire.SOA, int) {
	for i, rr := range z.recs {
		if h := rr.Header(); h.Name != z.origin || h.Type > dnswire.TypeSOA {
			break
		}
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa, i
		}
	}
	return nil, -1
}

// Serial returns the zone's SOA serial (0 when no SOA is present).
func (z *Zone) Serial() uint32 {
	z.rlockSorted()
	defer z.mu.RUnlock()
	if soa, _ := z.soaLocked(); soa != nil {
		return soa.Serial
	}
	return 0
}

// Add inserts a copy of a record into a zone being built; it panics on a
// published one. The owner name must be within the zone. Duplicate records
// (same name/type/rdata rendering) are dropped silently; a zone holds one
// SOA, so a second apex SOA replaces the first.
func (z *Zone) Add(rr dnswire.RR) error { return z.add(rr.Copy()) }

// add is Add for a record the caller hands over: the zone stores rr itself.
func (z *Zone) add(rr dnswire.RR) error {
	h := rr.Header()
	if !h.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.origin, h.Name)
	}
	if h.Type == dnswire.TypeOPT {
		return errors.New("zone: OPT pseudo-records cannot be stored")
	}
	if h.Type == dnswire.TypeSOA && h.Name != z.origin {
		return fmt.Errorf("zone %s: SOA at non-apex %s", z.origin, h.Name)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.editLocked("Add")
	z.recs, z.sorted = append(z.recs, rr), false
	return nil
}

// SetSerial sets the SOA serial of a zone being built (no-op without an
// SOA); it panics on a published one. The SOA record is replaced, never
// written through: compiled views share the zone's records, and a view taken
// before the change keeps answering with the old serial.
func (z *Zone) SetSerial(serial uint32) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.editLocked("SetSerial")
	z.sortLocked()
	soa, i := z.soaLocked()
	if soa == nil {
		return
	}
	bumped := *soa
	bumped.Serial = serial
	z.recs[i] = &bumped
}

// SOA returns the zone's SOA record, or nil.
func (z *Zone) SOA() *dnswire.SOA {
	z.rlockSorted()
	defer z.mu.RUnlock()
	if soa, _ := z.soaLocked(); soa != nil {
		return soa.Copy().(*dnswire.SOA)
	}
	return nil
}

// RRset returns a copy of the records for (name, typ).
func (z *Zone) RRset(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	z.rlockSorted()
	defer z.mu.RUnlock()
	return copyRRs(z.setLocked(name, typ))
}

// NameExists reports whether the name exists in the zone (has records or is
// an empty non-terminal).
func (z *Zone) NameExists(name dnswire.Name) bool {
	z.rlockSorted()
	defer z.mu.RUnlock()
	// A name's subtree is contiguous in canonical order and starts at the
	// name: it exists iff the record at its lower bound is at or below it.
	lo, _ := slices.BinarySearchFunc(z.recs, rrKey{name: name}, compareKey)
	return lo < len(z.recs) && name.IsSubdomainOf(z.origin) && z.recs[lo].Header().Name.IsSubdomainOf(name)
}

// namesLocked returns every name of the zone in canonical order: the apex,
// then each owner, preceded by those of its ancestors no earlier owner sits
// at or below (the empty non-terminals). z.mu held, slab sorted.
func (z *Zone) namesLocked() []dnswire.Name {
	if len(z.recs) == 0 {
		return nil
	}
	out := append(make([]dnswire.Name, 0, len(z.recs)), z.origin)
	for _, rr := range z.recs {
		if owner := rr.Header().Name; owner != out[len(out)-1] {
			out = z.appendNewNames(out, owner)
		}
	}
	return out
}

// appendNewNames appends, top down, a and those of its ancestors that out
// lacks: the ones its last name is not at or below.
func (z *Zone) appendNewNames(out []dnswire.Name, a dnswire.Name) []dnswire.Name {
	if a == z.origin || out[len(out)-1].IsSubdomainOf(a) {
		return out
	}
	return append(z.appendNewNames(out, a.Parent()), a)
}

// Names returns all owner names (including empty non-terminals) in
// canonical order.
func (z *Zone) Names() []dnswire.Name {
	z.rlockSorted()
	defer z.mu.RUnlock()
	return z.namesLocked()
}

// Cuts returns the zone's delegation points: non-apex names holding NS
// records. Queries at or below a cut are answered with referrals, never
// NXDOMAIN.
func (z *Zone) Cuts() []dnswire.Name {
	z.rlockSorted()
	defer z.mu.RUnlock()
	var out []dnswire.Name
	for _, rr := range z.recs {
		h := rr.Header()
		if h.Type == dnswire.TypeNS && h.Name != z.origin && (len(out) == 0 || out[len(out)-1] != h.Name) {
			out = append(out, h.Name)
		}
	}
	return out
}

// AllRecords returns a copy of every record in the zone (an AXFR-style
// snapshot), SOA first, in canonical owner order.
func (z *Zone) AllRecords() []dnswire.RR {
	z.rlockSorted()
	defer z.mu.RUnlock()
	if len(z.recs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, 0, len(z.recs))
	lo, hi := z.rangeLocked(z.origin, dnswire.TypeSOA)
	for _, part := range [][]dnswire.RR{z.recs[lo:hi], z.recs[:lo], z.recs[hi:]} {
		for _, rr := range part {
			out = append(out, rr.Copy())
		}
	}
	return out
}

// NumRecords reports the total record count.
func (z *Zone) NumRecords() int {
	z.rlockSorted()
	defer z.mu.RUnlock()
	return len(z.recs)
}

// Result classifies the outcome of a lookup.
type Result int

// Lookup outcomes.
const (
	// Success: Answer holds the matching RRset (possibly after CNAME chain).
	Success Result = iota
	// Delegation: the name is below a delegation point; NS holds the
	// delegation RRset and Glue any in-zone address records.
	Delegation
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// NoData: the name exists but has no records of the requested type.
	NoData
)

func (r Result) String() string {
	switch r {
	case Success:
		return "Success"
	case Delegation:
		return "Delegation"
	case NXDomain:
		return "NXDomain"
	case NoData:
		return "NoData"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Answer is the full outcome of a zone lookup.
type Answer struct {
	Result Result
	// Answer section records (answers + any chased CNAMEs, in chain order).
	Answer []dnswire.RR
	// NS is the delegation RRset for Result == Delegation, or nil.
	NS []dnswire.RR
	// Glue carries address records for in-zone delegation targets.
	Glue []dnswire.RR
	// SOA is provided for negative answers (NXDomain / NoData).
	SOA *dnswire.SOA
}

// maxCNAMEChain bounds in-zone CNAME chasing.
const maxCNAMEChain = 8

// appendGlueLocked appends the zone's own (shared, uncopied) in-zone A/AAAA
// records for the NS set's targets to dst: per target, A then AAAA.
func (z *Zone) appendGlueLocked(dst, nsSet []dnswire.RR) []dnswire.RR {
	for _, rr := range nsSet {
		ns, ok := rr.(*dnswire.NS)
		if !ok || !ns.Target.IsSubdomainOf(z.origin) {
			continue
		}
		dst = append(dst, z.setLocked(ns.Target, dnswire.TypeA)...)
		dst = append(dst, z.setLocked(ns.Target, dnswire.TypeAAAA)...)
	}
	return dst
}

func copyRRs(rrs []dnswire.RR) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.Copy()
	}
	return out
}
