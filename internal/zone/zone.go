// Package zone implements the authoritative zone store behind the platform's
// nameservers: RRset storage, the RFC 1034 §4.3.2 lookup algorithm (exact
// match, CNAME chasing, wildcard synthesis, delegation, NXDOMAIN vs NODATA),
// a master-file parser, and AXFR-style snapshots.
//
// A zone is a version: complete when it is made — by Build, ParseMaster,
// FromTransfer or Apply — and never changed after. The next version is a new
// zone, swapped in whole through Store.Update.
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

// Zone is one version of an authoritative zone: an apex name and the records
// at or below it, fixed when the zone is made. Its records are read with no
// lock, by any number of goroutines.
type Zone struct {
	origin dnswire.Name
	// originWire is the origin's wire-form routing key, rendered once at
	// construction so store router republishes never re-encode names.
	originWire string
	// recs is the zone at rest: every record in one exactly sized slab, in
	// canonical order — owner (Name.Compare), then type, then insertion
	// order — with no duplicate and at most one SOA. The records are shared
	// with the compiled view and never written through. Empty non-terminals
	// are not stored: a name exists iff the record at its lower bound is at
	// or below it.
	recs []dnswire.RR
	// version numbers the zone (see Version).
	version uint64
	// view is the compiled read-only snapshot (see view.go), compiled by the
	// first View() caller.
	view atomic.Pointer[View]
	// mu orders moving the zone between stores against publishing its view,
	// so each store's view gauges count the view exactly once.
	mu sync.Mutex
	// store is the Store the zone is installed in (nil otherwise), whose
	// view counters the zone's compile moves. Guarded by mu.
	store *Store
}

var versionSeq atomic.Uint64 // numbers zones, process-wide

// New creates an empty zone rooted at origin.
func New(origin dnswire.Name) *Zone {
	var wire [256]byte // a wire name is at most 255 octets
	return &Zone{
		origin:     origin,
		originWire: string(origin.AppendWire(wire[:0])),
		version:    versionSeq.Add(1),
	}
}

// Build makes a zone rooted at origin holding copies of recs. Every owner
// must be within the zone, and an SOA only at the apex. Duplicate records
// (same name/type/rdata rendering) are kept once; a zone holds one SOA, so of
// several apex SOAs the last one stays.
func Build(origin dnswire.Name, recs []dnswire.RR) (*Zone, error) {
	sc := getScratch()
	defer putScratch(sc)
	for _, rr := range recs {
		if err := sc.add(origin, rr.Copy()); err != nil {
			return nil, err
		}
	}
	return sc.zone(origin), nil
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

// Version identifies a zone: no two zones made in one process share it, and
// it never changes. It is 0 only for a nil zone (no zone at all).
func (z *Zone) Version() uint64 {
	if z == nil {
		return 0
	}
	return z.version
}

// canonical sorts recs in place — a stable sort, O(n log n) compares
// whatever order the records came in — drops duplicate records (same owner,
// type and rendering; the first stays) and all but the last apex SOA, and
// returns what is left copied into an exactly sized slab. recs itself is
// left as scratch.
func canonical(recs []dnswire.RR) []dnswire.RR {
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
	return append(make([]dnswire.RR, 0, len(out)), out...)
}

// scratch is the reusable working memory of a zone build and of a view
// compile, pooled so that loading many zones allocates little beyond what
// each zone keeps. Fields hold pointers only while in use: putScratch clears
// them, so the pool never pins a record or a line.
type scratch struct {
	line  []byte                  // ParseMaster: the line scanner's starting buffer
	toks  []string                // ParseMaster: one line's fields
	names map[string]dnswire.Name // ParseMaster: name tokens resolved so far
	// recs collects a build's records before canonical sorts them into the
	// zone's own slab; a compile collects every cut's glue in it.
	recs  []dnswire.RR
	ends  []int  // compile: where each cut's glue ends in recs
	arena []byte // compile: the view's arena, before its exact copy
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{line: make([]byte, 4096), names: make(map[string]dnswire.Name)}
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	clear(sc.toks[:cap(sc.toks)])
	clear(sc.recs)
	clear(sc.names)
	sc.toks, sc.recs = sc.toks[:0], sc.recs[:0]
	scratchPool.Put(sc)
}

// add appends rr to the records of a zone at origin being built, once
// checkRecord accepts it.
func (sc *scratch) add(origin dnswire.Name, rr dnswire.RR) error {
	if err := checkRecord(origin, rr); err != nil {
		return err
	}
	sc.recs = append(sc.recs, rr)
	return nil
}

// zone returns a new zone at origin holding the records added so far. It is
// how Build, ParseMaster, FromTransfer and Apply finish: each zone's slab is
// allocated once, at its exact size.
func (sc *scratch) zone(origin dnswire.Name) *Zone {
	z := New(origin)
	z.recs = canonical(sc.recs)
	return z
}

// checkRecord reports why rr cannot be stored in a zone at origin, if it
// cannot.
func checkRecord(origin dnswire.Name, rr dnswire.RR) error {
	h := rr.Header()
	if !h.Name.IsSubdomainOf(origin) {
		return fmt.Errorf("zone %s: record %s out of zone", origin, h.Name)
	}
	if h.Type == dnswire.TypeOPT {
		return errors.New("zone: OPT pseudo-records cannot be stored")
	}
	if h.Type == dnswire.TypeSOA && h.Name != origin {
		return fmt.Errorf("zone %s: SOA at non-apex %s", origin, h.Name)
	}
	return nil
}

// span returns where in the slab the RRset (name, typ) sits: a binary search
// for its lower bound, then a scan to its end.
func (z *Zone) span(name dnswire.Name, typ dnswire.Type) (lo, hi int) {
	k := rrKey{name, typ}
	lo, _ = slices.BinarySearchFunc(z.recs, k, compareKey)
	for hi = lo; hi < len(z.recs) && keyOf(z.recs[hi]) == k; hi++ {
	}
	return lo, hi
}

// set returns the zone's own (shared, uncopied) records for (name, typ). The
// three-index slice keeps appending callers out of the slab.
func (z *Zone) set(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	lo, hi := z.span(name, typ)
	return z.recs[lo:hi:hi]
}

// soa returns the zone's own SOA record, or nil. The apex sorts first and the
// SOA among its lowest types, so this reads a record or three.
func (z *Zone) soa() *dnswire.SOA {
	for _, rr := range z.recs {
		if h := rr.Header(); h.Name != z.origin || h.Type > dnswire.TypeSOA {
			break
		}
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa
		}
	}
	return nil
}

// Serial returns the zone's SOA serial (0 when no SOA is present).
func (z *Zone) Serial() uint32 {
	if soa := z.soa(); soa != nil {
		return soa.Serial
	}
	return 0
}

// SOA returns a copy of the zone's SOA record, or nil.
func (z *Zone) SOA() *dnswire.SOA {
	if soa := z.soa(); soa != nil {
		return soa.Copy().(*dnswire.SOA)
	}
	return nil
}

// RRset returns a copy of the records for (name, typ).
func (z *Zone) RRset(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	return copyRRs(z.set(name, typ))
}

// NameExists reports whether the name exists in the zone (has records or is
// an empty non-terminal).
func (z *Zone) NameExists(name dnswire.Name) bool {
	// A name's subtree is contiguous in canonical order and starts at the
	// name: it exists iff the record at its lower bound is at or below it.
	lo, _ := slices.BinarySearchFunc(z.recs, rrKey{name: name}, compareKey)
	return lo < len(z.recs) && name.IsSubdomainOf(z.origin) && z.recs[lo].Header().Name.IsSubdomainOf(name)
}

// names returns every name of the zone in canonical order, in an exactly
// sized slab: the apex, then each owner, preceded by those of its ancestors
// no earlier owner sits at or below (the empty non-terminals).
func (z *Zone) names() []dnswire.Name {
	if len(z.recs) == 0 {
		return nil
	}
	n := 1
	for i := range z.recs {
		_, k := z.newNames(i)
		n += k
	}
	out := make([]dnswire.Name, n)
	out[0], n = z.origin, 1
	for i := range z.recs {
		a, k := z.newNames(i)
		// a and its k-1 nearest ancestors, filled in bottom up.
		for j := n + k - 1; j >= n; j, a = j-1, a.Parent() {
			out[j] = a
		}
		n += k
	}
	return out
}

// newNames returns the owner of record i and how many names it adds after
// the record before it: itself and each ancestor below the apex that the
// previous owner is not at or below.
func (z *Zone) newNames(i int) (owner dnswire.Name, k int) {
	prev := z.origin
	if i > 0 {
		prev = z.recs[i-1].Header().Name
	}
	owner = z.recs[i].Header().Name
	for a := owner; a != z.origin && !prev.IsSubdomainOf(a); a = a.Parent() {
		k++
	}
	return owner, k
}

// Cuts returns the zone's delegation points: non-apex names holding NS
// records. Queries at or below a cut are answered with referrals, never
// NXDOMAIN.
func (z *Zone) Cuts() []dnswire.Name {
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
	if len(z.recs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, 0, len(z.recs))
	lo, hi := z.span(z.origin, dnswire.TypeSOA)
	for _, part := range [][]dnswire.RR{z.recs[lo:hi], z.recs[:lo], z.recs[hi:]} {
		for _, rr := range part {
			out = append(out, rr.Copy())
		}
	}
	return out
}

// NumRecords reports the total record count.
func (z *Zone) NumRecords() int { return len(z.recs) }

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

// appendGlue appends the zone's own (shared, uncopied) in-zone A/AAAA
// records for the NS set's targets to dst: per target, A then AAAA.
func (z *Zone) appendGlue(dst, nsSet []dnswire.RR) []dnswire.RR {
	for _, rr := range nsSet {
		ns, ok := rr.(*dnswire.NS)
		if !ok || !ns.Target.IsSubdomainOf(z.origin) {
			continue
		}
		dst = append(dst, z.set(ns.Target, dnswire.TypeA)...)
		dst = append(dst, z.set(ns.Target, dnswire.TypeAAAA)...)
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
