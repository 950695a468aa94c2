// Package zone implements the authoritative zone store behind the platform's
// nameservers: RRset storage, the RFC 1034 §4.3.2 lookup algorithm (exact
// match, CNAME chasing, wildcard synthesis, delegation, NXDOMAIN vs NODATA),
// a master-file parser, and AXFR-style snapshots.
//
// A zone is a version: complete when it is made — by Build, ParseMaster,
// FromTransfer or Apply — and never changed after. The next version is a new
// zone, swapped in whole through Store.Update. At rest a zone is its
// compiled view (view.go) and nothing else: every record lives packed in the
// view's arena, and every reader decodes what it returns from there.
package zone

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// Zone is one version of an authoritative zone: an apex name and the records
// at or below it, fixed when the zone is made. Its records are read with no
// lock, by any number of goroutines.
type Zone struct {
	// view is the zone at rest, compiled when the zone is made.
	view View
	// version numbers the zone (see Version).
	version uint64
	// store is the Store the zone is installed in (nil otherwise), whose
	// view gauges the zone's view is charged to.
	store atomic.Pointer[Store]
}

var versionSeq atomic.Uint64 // numbers zones, process-wide

// New creates an empty zone rooted at origin.
func New(origin dnswire.Name) *Zone {
	sc := getScratch(origin)
	defer putScratch(sc)
	return sc.zone(origin)
}

// Build makes a zone rooted at origin holding recs, which the zone packs and
// does not keep. Every owner must be within the zone, an SOA only at the
// apex, and every record must pack. Duplicate records (same owner, type and
// packed body) are kept once; a zone holds one SOA, so of several apex SOAs
// the last one stays.
func Build(origin dnswire.Name, recs []dnswire.RR) (*Zone, error) {
	sc := getScratch(origin)
	defer putScratch(sc)
	for _, rr := range recs {
		if err := sc.add(origin, rr); err != nil {
			return nil, err
		}
	}
	return sc.zone(origin), nil
}

// Origin returns the zone apex.
func (z *Zone) Origin() dnswire.Name { return z.view.origin }

// View returns the zone's compiled view: the zone itself, for readers.
func (z *Zone) View() *View { return &z.view }

// ViewBytes reports the heap footprint of the zone's view, which is the
// zone's own: header and slab.
func (z *Zone) ViewBytes() int { return int(z.view.size) }

// setStore moves the zone into s (out of any store, with nil), carrying its
// view's bytes from the old store's gauge to the new one's and counting an
// install in s's ViewRebuilds.
func (z *Zone) setStore(s *Store) {
	size := int64(z.view.size)
	old := z.store.Swap(s)
	if old == s {
		return
	}
	if old != nil {
		old.viewBytes.Add(-size)
	}
	if s != nil {
		s.viewBytes.Add(size)
		s.viewRebuilds.Add(1)
	}
}

// Version identifies a zone: no two zones made in one process share it, and
// it never changes. It is 0 only for a nil zone (no zone at all).
func (z *Zone) Version() uint64 {
	if z == nil {
		return 0
	}
	return z.version
}

// Serial returns the zone's SOA serial (0 when no SOA is present).
func (z *Zone) Serial() uint32 { return z.view.serial }

// SOA returns the zone's SOA record, decoded afresh, or nil.
func (z *Zone) SOA() *dnswire.SOA { return z.view.soaRecord() }

// RRset returns the records for (name, typ), decoded afresh and owned by
// name.
func (z *Zone) RRset(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	var buf [256]byte
	v := &z.view
	node, ok := v.node(name.AppendWire(buf[:0]))
	if !ok {
		return nil
	}
	s, hit := v.findSet(node, typ)
	if !hit {
		return nil
	}
	return v.records(nil, s, name)
}

// NameExists reports whether the name exists in the zone (has records or is
// an empty non-terminal).
func (z *Zone) NameExists(name dnswire.Name) bool {
	var buf [256]byte
	_, ok := z.view.node(name.AppendWire(buf[:0]))
	return ok
}

// Cuts returns the zone's delegation points: non-apex names holding NS
// records. Queries at or below a cut are answered with referrals, never
// NXDOMAIN.
func (z *Zone) Cuts() []dnswire.Name {
	v := &z.view
	var out []dnswire.Name
	for n := range v.nodes[:len(v.nodes)-1] {
		if v.nodes[n].cut() {
			out = append(out, v.nodeName(uint32(n)))
		}
	}
	return out
}

// AllRecords returns every record in the zone, decoded afresh (an AXFR-style
// snapshot), SOA first, in canonical owner order.
func (z *Zone) AllRecords() []dnswire.RR {
	v := &z.view
	var out []dnswire.RR
	if soa := v.soaRecord(); soa != nil {
		out = append(out, soa)
	}
	for n := range uint32(len(v.nodes) - 1) {
		lo, hi := v.setRange(n)
		owner := v.nodeName(n)
		for s := lo; s < hi; s++ {
			if n != 0 || v.sets[s].typ != dnswire.TypeSOA {
				out = v.records(out, s, owner)
			}
		}
	}
	return out
}

// ContentSum hashes the zone's records straight from its arena, without
// decoding one: the XOR of one FNV-1a hash per record, over its owner's
// folded wire form, its TYPE and its stored body (CLASS TTL RDLENGTH RDATA,
// in-zone names relative to the origin), and one over the origin and the
// record count. The origin is in the sum, so the stored names spell one
// record each. It covers the records AllRecords decodes, the apex SOA
// included. Records are unique within a zone, so the XOR is a faithful set
// hash, blind to the order the records were loaded in. It allocates
// nothing.
func (z *Zone) ContentSum() uint64 {
	v := &z.view
	var sum, n uint64
	var buf [256 + 8]byte
	for node := range uint32(len(v.nodes) - 1) {
		lo, hi := v.setRange(node)
		if lo == hi {
			continue
		}
		h := fnv1a(fnvOffset, v.appendNodeWire(buf[:0], node))
		for s := lo; s < hi; s++ {
			ht := fnv1a(h, binary.BigEndian.AppendUint16(buf[:0], uint16(v.sets[s].typ)))
			for w := v.setWire(s); len(w) > 0; n++ {
				body := firstBody(w)
				sum ^= fnv1a(ht, body)
				w = w[len(body):]
			}
		}
	}
	return sum ^ fnv1a(fnvOffset, binary.BigEndian.AppendUint64(append(buf[:0], v.originWire...), n))
}

// NumRecords reports the total record count: a walk of every set's bodies,
// the glue pseudo-sets left out.
func (z *Zone) NumRecords() int {
	v := &z.view
	total := 0
	for n := range uint32(len(v.nodes) - 1) {
		lo, hi := v.setRange(n)
		total += countBodies(v.arena[v.sets[lo].body:v.sets[hi].body])
	}
	return total
}

// entry is one record of a zone being built: its owner in folded wire
// form, its type, and its body as the arena stores it (storeBody's bytes),
// which canonical compares and the compile copies into the arena. Stored
// bodies of one origin are equal exactly when the records are.
type entry struct {
	owner []byte
	typ   dnswire.Type
	body  []byte
}

// compareEntry orders records canonically: owner (compareWire), then type.
func compareEntry(a, b entry) int {
	if c := compareWire(a.owner, b.owner); c != 0 {
		return c
	}
	return int(a.typ) - int(b.typ)
}

// compareWire orders folded wire names as dnswire.Name.Compare orders the
// names they spell: label by label from the root, an ancestor first. Past
// the labels the longer name has in front, the two are walked in step; the
// rightmost pair of labels that differ decides.
func compareWire(a, b []byte) int {
	if bytes.Equal(a, b) {
		return 0
	}
	na, nb := wireLabels(a), wireLabels(b)
	for k := na; k > nb; k-- {
		a = a[1+a[0]:]
	}
	for k := nb; k > na; k-- {
		b = b[1+b[0]:]
	}
	c := 0
	for ; a[0] != 0; a, b = a[1+a[0]:], b[1+b[0]:] {
		if d := bytes.Compare(a[1:1+a[0]], b[1:1+b[0]]); d != 0 {
			c = d
		}
	}
	if c != 0 {
		return c
	}
	return na - nb
}

// isSubdomainWire reports whether the folded wire name n is at or below
// parent.
func isSubdomainWire(n, parent []byte) bool {
	for len(n) > len(parent) {
		n = n[1+n[0]:]
	}
	return bytes.Equal(n, parent)
}

// ownerName returns the name a folded wire owner spells.
func ownerName(wire []byte) dnswire.Name {
	n, _ := dnswire.NameFromFoldedWire(wire)
	return n
}

// canonical sorts ents in place — a stable sort, O(n log n) compares
// whatever order the records came in — and returns them with duplicate
// records (same owner, type and packed body; the first stays) and all but
// the last apex SOA dropped, in the same backing array.
func canonical(ents []entry) []entry {
	slices.SortStableFunc(ents, compareEntry)
	out := ents[:0]
	for i := 0; i < len(ents); {
		j := i + 1
		for j < len(ents) && compareEntry(ents[i], ents[j]) == 0 {
			j++
		}
		if ents[i].typ == dnswire.TypeSOA {
			out = append(out, ents[j-1])
		} else {
			out = appendUnique(out, ents[i:j])
		}
		i = j
	}
	return out
}

// linearSet is the RRset size up to which appendUnique compares each
// record with those kept before it, which allocates nothing; past it, it
// sorts an index by body.
const linearSet = 16

// appendUnique appends the records of one RRset to out, in set's order,
// leaving out each record whose body an earlier one already has. out may
// share set's backing array, ending at or before set's start. A large set
// costs O(n log n), not the O(n²) of comparing each record with every
// kept one.
func appendUnique(out, set []entry) []entry {
	if len(set) <= linearSet {
		kept := len(out)
		for _, e := range set {
			if !slices.ContainsFunc(out[kept:], func(have entry) bool { return bytes.Equal(have.body, e.body) }) {
				out = append(out, e)
			}
		}
		return out
	}
	// Stable, so of equal bodies the first in set's order sorts first.
	idx := make([]int32, len(set))
	for k := range idx {
		idx[k] = int32(k)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return bytes.Compare(set[a].body, set[b].body) })
	dup := make([]bool, len(set))
	for k := 1; k < len(idx); k++ {
		if bytes.Equal(set[idx[k-1]].body, set[idx[k]].body) {
			dup[idx[k]] = true
		}
	}
	for k, e := range set {
		if !dup[k] {
			out = append(out, e)
		}
	}
	return out
}

// scratch is the reusable working memory of a zone build, pooled so that
// loading many zones allocates little beyond what each zone keeps. Fields
// hold pointers only while in use: putScratch clears them, so the pool never
// pins a record or a line.
type scratch struct {
	// ParseMaster's: the line scanner's starting buffer, one line's fields,
	// the physical lines of a parenthesized record so far. Then the zone's
	// origin in wire form, which getScratch sets and every record stored
	// and the compile read, and ParseMaster's current $ORIGIN.
	line    []byte
	toks    [][]byte
	pending []byte
	apex    []byte
	origin  []byte
	// ents collects a build's records before canonical sorts them in
	// place; each one's owner and body bytes are packed into bodies.
	ents   []entry
	bodies []byte
	// The compile's working set: every name of the zone in canonical order,
	// the index of each name's first entry, and the view's rows before
	// their copies into the slab.
	nodeNames [][]byte
	first     []int
	nodes     []viewNode
	sets      []viewSet
	arena     []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{line: make([]byte, 4096)}
}}

// getScratch takes a scratch for building a zone at origin.
func getScratch(origin dnswire.Name) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.apex = origin.AppendWire(sc.apex[:0])
	return sc
}

func putScratch(sc *scratch) {
	clear(sc.toks[:cap(sc.toks)])
	clear(sc.ents)
	clear(sc.nodeNames)
	sc.toks, sc.ents, sc.nodeNames = sc.toks[:0], sc.ents[:0], sc.nodeNames[:0]
	sc.pending, sc.bodies = sc.pending[:0], sc.bodies[:0]
	scratchPool.Put(sc)
}

// add packs rr into the records of a zone at origin being built, once
// checkRecord accepts it: its owner's wire form, then its stored body.
func (sc *scratch) add(origin dnswire.Name, rr dnswire.RR) error {
	start := len(sc.bodies)
	sc.bodies = rr.Header().Name.AppendWire(sc.bodies)
	mid := len(sc.bodies)
	var err error
	if sc.bodies, err = checkRecord(origin, rr, sc.bodies); err != nil {
		sc.bodies = sc.bodies[:start]
		return err
	}
	sc.bodies = sc.bodies[:mid+len(storeBody(sc.bodies[mid:], sc.apex))]
	end := len(sc.bodies)
	sc.ents = append(sc.ents, entry{owner: sc.bodies[start:mid:mid], typ: rr.Header().Type, body: sc.bodies[mid:end:end]})
	return nil
}

// checkRecord reports why rr cannot be stored in a zone at origin, if it
// cannot; otherwise it returns buf with rr's packed body appended.
func checkRecord(origin dnswire.Name, rr dnswire.RR, buf []byte) ([]byte, error) {
	h := rr.Header()
	if !h.Name.IsSubdomainOf(origin) {
		return buf, fmt.Errorf("zone %s: record %s out of zone", origin, h.Name)
	}
	if h.Type == dnswire.TypeOPT {
		return buf, errors.New("zone: OPT pseudo-records cannot be stored")
	}
	if h.Type == dnswire.TypeSOA && h.Name != origin {
		return buf, fmt.Errorf("zone %s: SOA at non-apex %s", origin, h.Name)
	}
	out, err := dnswire.AppendRRBody(buf, rr)
	if err != nil {
		return buf, fmt.Errorf("zone %s: record %s %s will not pack: %w", origin, h.Name, h.Type, err)
	}
	return out, nil
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
