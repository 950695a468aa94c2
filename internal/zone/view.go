package zone

// This file is the compiled read path: an immutable per-zone View compiled
// on first use and published through an atomic pointer, so
// lookups — including the random-subdomain NXDOMAIN floods of §5.3 that are
// cache-busting by construction — run with no locks, no RR deep copies, and
// (on the wire path) no allocations. The reference implementation it is held
// to lives in the tests (oracle_test.go): FuzzViewLookupParity holds the two
// to identical answers.
//
// A View is flat: one header, one pointer-free byte arena, two pointer-free
// index arrays and two pointer-bearing slabs, whatever the zone's size.
//
//	arena  [child table][node labels][set bodies and glue, set by set]
//	nodes  one per owner name and empty non-terminal, apex first
//	sets   one per RRset, node by node and type-sorted within a node
//	names  nodes[i]'s owner as a dnswire.Name (strings shared with the zone)
//	rrs    the zone's own records, set by set (shared, never deep-copied),
//	       each cut's glue after its sets
//
// Every name lookup is one top-down walk from the apex: each label below the
// origin costs one probe of the child table, and the walk yields the topmost
// delegation point, the exact node and the closest encloser together.

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"akamaidns/internal/dnswire"
)

// View is an immutable compiled snapshot of one zone. All fields — including
// every RR reachable through it — are frozen at compile time: readers share
// them freely, and edits to a zone being built never touch a compiled View
// (they drop the zone's pointer and the next reader compiles a fresh one).
type View struct {
	// The fields a lookup reads come first, so a cold view costs it few
	// cache lines of header.

	// wireOK gates the wire path; a record that cannot be pre-packed (never
	// expected in practice) downgrades the view to structured-only.
	wireOK       bool
	originLabels int32
	// arena starts with the child table: tableMask+1 little-endian uint32
	// slots, open-addressed with linear probing. A slot's low idxMask bits
	// hold a node index + 1 (0 marks an empty slot), the remaining high bits
	// a tag from the child hash so a colliding probe rarely touches a node.
	// After the table come the nodes' labels and then, set by set, the
	// records' bodies: owner-less wire (TYPE CLASS TTL RDLEN RDATA, names
	// uncompressed so the bytes are position-independent), delimited by
	// their RDLEN. A cut's glue is fully packed with literal owners.
	tableMask uint32
	idxMask   uint32
	arena     []byte
	// originWire is the origin's folded wire name. It is the zone's own
	// routing key, the bytes Store.FindWire has just compared: holding a
	// query to it costs no cache miss.
	originWire string
	// nodes and sets each end in a sentinel, so a node's sets end where the
	// next node's begin and a set's records and bytes end where the next
	// set's begin.
	nodes []viewNode
	sets  []viewSet
	// soaBody aliases the arena: the apex SOA's pre-packed body for negative
	// answers (nil when the zone has no SOA).
	soaBody []byte

	names  []dnswire.Name
	rrs    []dnswire.RR
	soa    *dnswire.SOA
	origin dnswire.Name
	serial uint32
	// size is the view's heap footprint in bytes: header, arena and slabs.
	size int
}

// viewNode is one owner name (or empty non-terminal) of the zone tree.
type viewNode struct {
	parent uint32 // node index of the parent name
	label  uint32 // arena offset of the node's own length-prefixed label
	sets   uint32 // index of the node's first set
	// wildcard is the node index of the "*" child, so wildcard synthesis is
	// an array read instead of a name construction; 0 when there is none
	// (the apex is nobody's child).
	wildcard uint32
	// cut marks a delegation point (non-apex NS owner). A cut's last set is
	// its glue pseudo-set: the in-zone A/AAAA records of the NS targets in
	// the legacy glue order, its bytes the same records fully packed.
	cut bool
}

// viewSet is one compiled RRset: a range of the record slab plus the
// records' pre-packed bodies in the arena.
type viewSet struct {
	rr   uint32
	body uint32
	typ  dnswire.Type
}

// Origin returns the compiled zone's apex.
func (v *View) Origin() dnswire.Name { return v.origin }

// Serial returns the SOA serial frozen into the view.
func (v *View) Serial() uint32 { return v.serial }

// View returns the zone's compiled snapshot, building it on first use after
// an edit (which is also what sorts the zone's slab after a load); a
// published zone compiles at most once. Publication is race-free: edits
// invalidate under the write lock, compilation happens under the read lock,
// so a compiled view can never overwrite a later invalidation; of two
// readers compiling the same state at once, one publishes and both return
// that view.
func (z *Zone) View() *View {
	if v := z.view.Load(); v != nil {
		return v
	}
	z.rlockSorted()
	defer z.mu.RUnlock()
	if v := z.view.Load(); v != nil {
		return v
	}
	v := z.compileViewLocked()
	if !z.view.CompareAndSwap(nil, v) {
		return z.view.Load()
	}
	if z.store != nil {
		z.store.viewRebuilds.Add(1)
		z.store.viewBytes.Add(int64(v.size))
	}
	return v
}

// ViewBytes reports the heap footprint of the zone's published view, 0
// while none is compiled (it never triggers a compile).
func (z *Zone) ViewBytes() int {
	if v := z.view.Load(); v != nil {
		return v.size
	}
	return 0
}

// compileViewLocked builds the snapshot from the sorted slab; z.mu held (read
// suffices — mutators hold it exclusively). Canonical order puts a name
// before everything below it and keeps an owner's records together by type,
// so the slab is consumed front to back: nothing is sorted, and nothing is
// looked up but glue.
func (z *Zone) compileViewLocked() *View {
	recs := z.recs
	// Count names and sets and resolve each cut's glue first, so every slab
	// is allocated once, exactly.
	names := z.namesLocked()
	nn, nsets := len(names), 1
	var glue []dnswire.RR // every cut's glue, cut by cut in slab order
	var glueEnd []int     // where each cut's glue ends in it
	for i := 0; i < len(recs); {
		k, j := keyOf(recs[i]), setEnd(recs, i)
		nsets++
		if k.typ == dnswire.TypeNS && k.name != z.origin {
			nsets++
			glue = z.appendGlueLocked(glue, recs[i:j])
			glueEnd = append(glueEnd, len(glue))
		}
		i = j
	}
	v := &View{
		origin:       z.origin,
		originWire:   z.originWire,
		originLabels: int32(z.origin.NumLabels()),
		tableMask:    1<<bits.Len(uint(nn+nn/2)) - 1, // load factor under 2/3
		idxMask:      1<<bits.Len(uint(nn)) - 1,
		wireOK:       true,
	}
	table := 4 * int(v.tableMask+1)
	v.arena = make([]byte, table, table+8*nn+40*(len(recs)+len(glue)))
	v.nodes = make([]viewNode, 0, nn+1)
	v.names = make([]dnswire.Name, 0, nn)
	v.sets = make([]viewSet, 0, nsets)
	v.rrs = make([]dnswire.RR, 0, len(recs)+len(glue))
	// The nodes: a name's parent is the last node made one label up.
	var path [maxWireLabels + 1]uint32
	for i, n := range names {
		if i == 0 {
			v.nodes, v.names = append(v.nodes, viewNode{}), append(v.names, n)
			continue
		}
		d := n.NumLabels() - int(v.originLabels)
		path[d] = v.addNode(path[d-1], n)
	}
	// The sets, node by node; a cut's glue follows its sets.
	i, g := 0, 0
	for n := range v.nodes {
		v.nodes[n].sets = uint32(len(v.sets))
		for i < len(recs) && recs[i].Header().Name == v.names[n] {
			typ, j := recs[i].Header().Type, setEnd(recs, i)
			v.sets = append(v.sets, viewSet{rr: uint32(len(v.rrs)), body: uint32(len(v.arena)), typ: typ})
			v.rrs = append(v.rrs, recs[i:j]...)
			for _, rr := range recs[i:j] {
				v.appendPacked(dnswire.AppendRRBody, rr)
			}
			v.nodes[n].cut = v.nodes[n].cut || typ == dnswire.TypeNS && n != 0
			i = j
		}
		if v.nodes[n].cut {
			v.sets = append(v.sets, viewSet{rr: uint32(len(v.rrs)), body: uint32(len(v.arena))})
			end := glueEnd[0]
			for _, rr := range glue[g:end] {
				v.appendPacked(dnswire.AppendRR, rr)
			}
			v.rrs = append(v.rrs, glue[g:end]...)
			g, glueEnd = end, glueEnd[1:]
		}
	}
	v.nodes = append(v.nodes, viewNode{sets: uint32(len(v.sets))})
	v.sets = append(v.sets, viewSet{rr: uint32(len(v.rrs)), body: uint32(len(v.arena))})
	// The arena grew by append from an estimate: trim it to size.
	v.arena = append(make([]byte, 0, len(v.arena)), v.arena...)
	if nn > 0 {
		if s, ok := v.findSet(0, dnswire.TypeSOA); ok {
			if soa, isSOA := v.rrs[v.sets[s].rr].(*dnswire.SOA); isSOA {
				v.soa, v.serial = soa, soa.Serial
				if v.wireOK {
					v.soaBody = firstBody(v.setWire(s))
				}
			}
		}
	}
	v.size = int(unsafe.Sizeof(*v)) + cap(v.arena) +
		cap(v.nodes)*int(unsafe.Sizeof(viewNode{})) + cap(v.sets)*int(unsafe.Sizeof(viewSet{})) +
		cap(v.names)*int(unsafe.Sizeof(dnswire.Name{})) + cap(v.rrs)*int(unsafe.Sizeof(dnswire.RR(nil)))
	return v
}

// setEnd returns where the RRset that starts at recs[i] ends in a sorted slab.
func setEnd(recs []dnswire.RR, i int) int {
	k := keyOf(recs[i])
	for i++; i < len(recs) && keyOf(recs[i]) == k; i++ {
	}
	return i
}

// appendPacked packs one record into the arena; a record that will not pack
// leaves the arena as it was and switches the wire path off.
func (v *View) appendPacked(pack func([]byte, dnswire.RR) ([]byte, error), rr dnswire.RR) {
	if b, err := pack(v.arena, rr); err == nil {
		v.arena = b
	} else {
		v.wireOK = false
	}
}

// addNode appends the node for n, a child of node parent, and enters it in
// the child table.
func (v *View) addNode(parent uint32, n dnswire.Name) uint32 {
	first := n.FirstLabel()
	idx := uint32(len(v.nodes))
	v.nodes = append(v.nodes, viewNode{parent: parent, label: uint32(len(v.arena))})
	v.names = append(v.names, n)
	v.arena = append(append(v.arena, byte(len(first))), first...)
	if first == "*" {
		v.nodes[parent].wildcard = idx
	}
	h := childHash(parent, v.arena[v.nodes[idx].label:])
	for s := uint32(h) & v.tableMask; ; s = (s + 1) & v.tableMask {
		if slot := v.arena[4*s:]; binary.LittleEndian.Uint32(slot) == 0 {
			binary.LittleEndian.PutUint32(slot, uint32(h>>32)&^v.idxMask|(idx+1))
			return idx
		}
	}
}

// childHash mixes a parent node index with a child's length-prefixed label,
// eight label bytes per multiply. The low word picks the table slot, the
// high word supplies the slot's tag.
func childHash(parent uint32, label []byte) uint64 {
	h := (uint64(parent) + 1) * 0x9E3779B97F4A7C15
	for ; len(label) >= 8; label = label[8:] {
		h = (h ^ binary.LittleEndian.Uint64(label)) * 0xFF51AFD7ED558CCD
		h ^= h >> 32
	}
	var tail uint64
	for i, b := range label {
		tail |= uint64(b) << (8 * i)
	}
	h = (h ^ tail) * 0xC4CEB9FE1A85EC53
	return h ^ h>>32
}

// child finds parent's child with the given length-prefixed folded label:
// one table probe, plus one node and label compare per tag match.
func (v *View) child(parent uint32, label []byte) (uint32, bool) {
	h := childHash(parent, label)
	tag := uint32(h>>32) &^ v.idxMask
	for s := uint32(h) & v.tableMask; ; s = (s + 1) & v.tableMask {
		e := binary.LittleEndian.Uint32(v.arena[4*s:])
		if e == 0 {
			return 0, false
		}
		if e&^v.idxMask != tag {
			continue
		}
		idx := e&v.idxMask - 1
		nd := &v.nodes[idx]
		// The length octet leads both labels, so equal bytes over
		// len(label) mean equal labels.
		if have := v.arena[nd.label:]; nd.parent == parent && len(have) >= len(label) && string(have[:len(label)]) == string(label) {
			return idx, true
		}
	}
}

// maxWireLabels bounds the per-name label-offset scratch (a 255-octet name
// holds at most 127 labels).
const maxWireLabels = 128

// labelOffsets is the scratch splitLabels fills: one offset per label plus
// the terminal root octet's.
type labelOffsets [maxWireLabels + 1]uint16

// splitLabels records where each label of a wire-form name starts, and after
// them where its root octet sits, returning the label count (-1 for a name
// with more than maxWireLabels labels).
func splitLabels(name []byte, offs *labelOffsets) int {
	nl, o := 0, 0
	for ; name[o] != 0; o += 1 + int(name[o]) {
		if nl == maxWireLabels {
			return -1
		}
		offs[nl] = uint16(o)
		nl++
	}
	offs[nl] = uint16(o)
	return nl
}

// locate walks a folded wire-form name with rel labels below the origin
// top-down from the apex, one child probe per label, and returns the deepest
// existing node with the index of that node's leftmost label: 0 when the
// name itself exists, rel when only the apex matched. The walk stops at the
// first delegation point: cut reports that the name sits at or below one —
// the topmost — and node is it; otherwise node is the name's closest
// encloser. The view must not be empty (see View.empty).
func (v *View) locate(name []byte, offs *labelOffsets, rel int) (node uint32, i int, cut bool) {
	for i = rel; i > 0 && !cut; i-- {
		c, found := v.child(node, name[offs[i-1]:offs[i]])
		if !found {
			break
		}
		node, cut = c, v.nodes[c].cut
	}
	return node, i, cut
}

// empty reports a zone with no records: it has no apex node (nodes holds
// its sentinel alone), so every name in it — the origin included — is
// NXDOMAIN.
func (v *View) empty() bool { return len(v.nodes) == 1 }

// findSet returns the index of node's RRset of type t. (A cut's trailing
// glue pseudo-set carries type 0 and is only ever reached by index.)
func (v *View) findSet(node uint32, t dnswire.Type) (uint32, bool) {
	for s, end := v.nodes[node].sets, v.nodes[node+1].sets; s < end; s++ {
		if typ := v.sets[s].typ; typ >= t {
			return s, typ == t
		}
	}
	return 0, false
}

// glueSet returns the index of a cut's glue pseudo-set: its last set.
func (v *View) glueSet(cut uint32) uint32 { return v.nodes[cut+1].sets - 1 }

// setRRs returns set s's records. The three-index slice keeps callers that
// append (the engine chains glue ahead of its OPT record) from ever writing
// into the slab, where the next set's records follow.
func (v *View) setRRs(s uint32) []dnswire.RR {
	lo, hi := v.sets[s].rr, v.sets[s+1].rr
	return v.rrs[lo:hi:hi]
}

// setWire returns set s's arena bytes: its records' bodies back to back.
func (v *View) setWire(s uint32) []byte {
	return v.arena[v.sets[s].body:v.sets[s+1].body]
}

// firstBody cuts the first record body off a set's bytes.
func firstBody(w []byte) []byte {
	return w[:10+int(w[8])<<8+int(w[9])]
}

// source picks the node that answers for a located name: the node itself
// when the name exists, else the closest encloser's wildcard child (matching
// the legacy algorithm, which never looks past the first existing ancestor).
// ok is false when neither exists.
func (v *View) source(node uint32, exact bool) (src uint32, ok bool) {
	if exact {
		return node, true
	}
	src = v.nodes[node].wildcard
	return src, src != 0
}

// CanExist reports whether a query for the folded wire-form name, of any
// type, could be answered with something other than NXDOMAIN: the name sits
// at or below a delegation point, is a node of the zone (an empty
// non-terminal included), or is covered by its closest encloser's wildcard.
// It errs towards true only in that a wildcard may not hold the type asked
// for; a name outside the zone cannot exist in it.
func (v *View) CanExist(qname []byte) bool {
	var offs labelOffsets
	rel := splitLabels(qname, &offs) - int(v.originLabels)
	if v.empty() || rel < 0 || string(qname[offs[rel]:]) != v.originWire {
		return false
	}
	node, i, cut := v.locate(qname, &offs, rel)
	_, ok := v.source(node, i == 0)
	return cut || ok
}

// Lookup is the structured read off the compiled view: the RFC 1034 §4.3.2
// algorithm with no lock and no RR copies — returned records, and the slices
// holding them, are shared with the view and must be treated as read-only
// (wildcard-synthesized records are fresh copies, as their owner is
// rewritten). A shared slice is capped, so appending to it copies.
func (v *View) Lookup(qname dnswire.Name, qtype dnswire.Type) Answer {
	if v.empty() || !qname.IsSubdomainOf(v.origin) {
		return Answer{Result: NXDomain}
	}
	var (
		ans  Answer
		buf  [256]byte
		offs labelOffsets
	)
	name := qname
	for hop := 0; ; hop++ {
		wire := name.AppendWire(buf[:0])
		node, i, cut := v.locate(wire, &offs, splitLabels(wire, &offs)-int(v.originLabels))
		if cut {
			ns, _ := v.findSet(node, dnswire.TypeNS)
			ans.Result = Delegation
			ans.NS = v.setRRs(ns)
			ans.Glue = v.setRRs(v.glueSet(node))
			return ans
		}
		exact := i == 0
		if src, found := v.source(node, exact); found {
			if s, hit := v.findSet(src, qtype); hit {
				ans.Result = Success
				ans.Answer = appendOwned(ans.Answer, v.setRRs(s), name, exact)
				return ans
			}
			if exact && qtype == dnswire.TypeANY {
				// Every set at the node, ordered by type then insertion
				// order: its sets sit back to back in the slab.
				lo, hi := v.sets[v.nodes[node].sets].rr, v.sets[v.nodes[node+1].sets].rr
				if lo < hi {
					ans.Result = Success
					ans.Answer = appendOwned(ans.Answer, v.rrs[lo:hi:hi], name, true)
					return ans
				}
			}
			if s, hit := v.findSet(src, dnswire.TypeCNAME); hit && qtype != dnswire.TypeCNAME {
				ans.Answer = appendOwned(ans.Answer, v.setRRs(s)[:1:1], name, exact)
				cname := ans.Answer[len(ans.Answer)-1].(*dnswire.CNAME)
				if hop < maxCNAMEChain && cname.Target.IsSubdomainOf(v.origin) {
					name = cname.Target
					continue
				}
				// Chain limit or out-of-zone target: answer what we have.
				ans.Result = Success
				return ans
			}
			if exact {
				ans.Result = NoData
				ans.SOA = v.soa
				return ans
			}
		}
		ans.Result = NXDomain
		ans.SOA = v.soa
		return ans
	}
}

// appendOwned appends a set's records to an answer: shared as they are when
// the owner matched exactly — the set's own capped slice when the answer is
// still empty — and as copies re-owned to name when a wildcard synthesized
// them.
func appendOwned(dst, rrs []dnswire.RR, name dnswire.Name, exact bool) []dnswire.RR {
	if exact {
		if len(dst) == 0 {
			return rrs
		}
		return append(dst, rrs...)
	}
	for _, rr := range rrs {
		c := rr.Copy()
		c.Header().Name = name
		dst = append(dst, c)
	}
	return dst
}

// WireAnswer summarizes a response assembled by AppendAnswer.
type WireAnswer struct {
	Result Result
	// Answer, Authority, Additional are the record counts appended per
	// section (glue lands in Additional; the caller appends any OPT itself).
	Answer, Authority, Additional int
	// Cacheable reports that the query name exists as a node in the zone —
	// a bounded key space, safe to admit into a packed-response cache
	// (random-subdomain floods are never cacheable by construction).
	Cacheable bool
	// Name is the interned decoded qname when Cacheable.
	Name dnswire.Name
}

// AppendAnswer assembles the answer/authority/glue sections for (qname,
// qtype) directly from pre-packed view bytes, appending to out. qname is
// the folded wire-form query name (dnswire.QueryView.AppendQnameFolded),
// already routed to this view (Store.FindWire), and qnameOff is the
// absolute message offset where the client's qname bytes sit, so owners can
// be rendered as compression pointers into the question. TypeANY, a name
// outside the zone and any view that failed to pre-pack report ok=false:
// the caller must fall back to the decode path. The structured results
// match View.Lookup exactly, including the engine's convention that
// negative and referral responses drop any chased CNAMEs from the answer
// section.
func (v *View) AppendAnswer(out []byte, qname []byte, qnameOff int, qtype dnswire.Type) ([]byte, WireAnswer, bool) {
	var wa WireAnswer
	if !v.wireOK || qtype == dnswire.TypeANY {
		return out, wa, false
	}
	if v.empty() {
		wa.Result = NXDomain
		return out, wa, true
	}
	base := len(out)
	cur := qname       // wire bytes of the name being matched
	curOff := qnameOff // absolute message offset of those bytes
	originPtr := 0
	var offs labelOffsets
	for hop := 0; ; hop++ {
		// Split at label boundaries and hold the name to the origin there,
		// so stray byte coincidences can never alias.
		rel := splitLabels(cur, &offs) - int(v.originLabels)
		inZone := rel >= 0 && string(cur[offs[rel]:]) == v.originWire
		if hop == 0 {
			if !inZone {
				return out, wa, false
			}
			originPtr = qnameOff + int(offs[rel])
		} else if !inZone {
			// The chain left the zone: the resolver follows it from here.
			wa.Result = Success
			return out, wa, true
		}
		node, i, cut := v.locate(cur, &offs, rel)
		if cut {
			// Referrals drop chased CNAMEs (engine parity); after the
			// rewind, pointers into the chain would dangle, so owners fall
			// back to their literal bytes on chased hops.
			out = out[:base]
			wa.Answer = 0
			ptr := -1
			if hop == 0 {
				ptr = curOff + int(offs[i])
			}
			ns, _ := v.findSet(node, dnswire.TypeNS)
			out, wa.Authority = appendBodies(out, ptr, cur[offs[i]:], v.setWire(ns))
			glue := v.glueSet(node)
			out = append(out, v.setWire(glue)...)
			wa.Additional = len(v.setRRs(glue))
			wa.Result = Delegation
			return out, wa, true
		}
		exact := i == 0
		if exact && hop == 0 {
			wa.Cacheable = true
			wa.Name = v.names[node]
		}
		if src, found := v.source(node, exact); found {
			if s, hit := v.findSet(src, qtype); hit {
				var n int
				out, n = appendBodies(out, curOff, cur, v.setWire(s))
				wa.Answer += n
				wa.Result = Success
				return out, wa, true
			}
			if s, hit := v.findSet(src, dnswire.TypeCNAME); hit && qtype != dnswire.TypeCNAME {
				body := firstBody(v.setWire(s))
				out = appendWireOwner(out, curOff, cur)
				bodyStart := len(out)
				out = append(out, body...)
				wa.Answer++
				if hop >= maxCNAMEChain {
					wa.Result = Success
					return out, wa, true
				}
				// The body's RDATA is the uncompressed target name; its copy
				// in the message becomes the next owner's pointer target.
				cur = body[10:]
				curOff = bodyStart + 10
				continue
			}
		}
		out = out[:base]
		wa.Answer = 0
		wa.Result = NXDomain
		if exact {
			wa.Result = NoData
		}
		if v.soaBody != nil {
			// The owner points at the origin's bytes inside the question.
			out = appendWireOwner(out, originPtr, v.originWire)
			out = append(out, v.soaBody...)
			wa.Authority = 1
		}
		return out, wa, true
	}
}

// appendBodies appends every record of a set's bytes under one owner,
// returning the record count.
func appendBodies(out []byte, ptr int, literal, w []byte) ([]byte, int) {
	n := 0
	for ; len(w) > 0; n++ {
		body := firstBody(w)
		out = appendWireOwner(out, ptr, literal)
		out = append(out, body...)
		w = w[len(body):]
	}
	return out, n
}

// appendWireOwner renders a record owner: a compression pointer when the
// name already sits at a pointable message offset, its literal bytes
// otherwise.
func appendWireOwner[S []byte | string](out []byte, ptr int, literal S) []byte {
	if ptr >= 0 && ptr <= 0x3FFF {
		return append(out, 0xC0|byte(ptr>>8), byte(ptr))
	}
	return append(out, literal...)
}
