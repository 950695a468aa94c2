package zone

// This file is the zone at rest: an immutable View compiled when the zone is
// made, from which every read is served — lookups, including the
// random-subdomain NXDOMAIN floods of §5.3 that are cache-busting by
// construction, run with no locks and (on the wire path) no allocations.
// The records a zone is built from die with the build: the structured
// readers (Lookup, AllRecords, RRset, SOA, Diff, Apply) decode what they
// return from the arena. The reference implementation the view is held to
// lives in the tests (oracle_test.go): FuzzViewLookupParity and
// FuzzZoneArena hold the two to identical answers.
//
// A View is flat: one header and one slab, whatever the zone's size, and the
// slab holds no pointer for the collector to trace. It keeps only what it
// cannot derive.
//
//	slab   [nodes][sets][arena][origin wire][origin text]
//	nodes  one 12-byte row per owner name and empty non-terminal, apex first
//	sets   one 8-byte row per RRset, node by node and type-sorted within a
//	       node, each cut's glue after its sets
//	arena  [child table][node labels][set bodies and glue, set by set]
//
// No owner is kept as text. The wire tiers point owners into the question;
// Lookup takes each from a name it already holds (the query name, a suffix
// of it, a decoded target, the origin); the control-plane readers spell
// owners from the node labels. A record body keeps no TYPE, which its set
// row holds, and no record count: a set's records are a walk of their
// RDLENs. An in-zone name in the RDATA of an NS, CNAME, PTR, MX or SOA
// record — the names dnswire's packer compresses (RFC 1035 §4.1.4, RFC 3597
// §4) — is stored relative to the origin (see relMark), which the wire path
// turns into a compression pointer to the origin's bytes in the question.
//
// Every name lookup is one top-down walk from the apex: each label below the
// origin costs one probe of the child table, and the walk yields the topmost
// delegation point, the exact node and the closest encloser together.

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"akamaidns/internal/dnswire"
)

// View is the immutable compiled form of one zone. All fields are frozen
// when the zone is made, and readers share them freely.
type View struct {
	// The fields a lookup reads come first, so a cold view costs it few
	// cache lines of header.

	originLabels int32
	// arena starts with the child table: tableMask+1 little-endian uint32
	// slots, open-addressed with linear probing. A slot's low idxMask bits
	// hold a node index + 1 (0 marks an empty slot), the remaining high bits
	// a tag from the child hash so a colliding probe rarely touches a node.
	// After the table come the nodes' labels and then, set by set, the
	// records' bodies: owner- and type-less wire (CLASS TTL RDLEN RDATA, names
	// uncompressed or relative to the origin so the bytes are
	// position-independent), delimited by their RDLEN. A cut's glue
	// pseudo-set holds one little-endian uint32 per NS record of the cut: the
	// node index + 1 of its target when the target owns A or AAAA records,
	// else 0.
	tableMask uint32
	idxMask   uint32
	// soa is the arena offset of the apex SOA's pre-packed body, for
	// negative answers: 0, the child table's, when the zone has none.
	soa   uint32
	arena []byte
	// originWire is the origin's folded wire form in the slab. It is the
	// zone's own routing key, the bytes Store.FindWire has just compared:
	// holding a query to it costs no cache miss.
	originWire string
	// nodes and sets each end in a sentinel, so a node's sets end where the
	// next node's begin, and a set's records and bytes end where the next
	// set's begin.
	nodes []viewNode
	sets  []viewSet
	// origin is the apex, its text in the slab.
	origin dnswire.Name
	serial uint32
	// size is the zone's heap footprint in bytes: header and slab.
	size uint32
}

// viewNode is one owner name (or empty non-terminal) of the zone tree.
type viewNode struct {
	// parent is the node index of the parent name, with cutBit set on a
	// delegation point (non-apex NS owner) and wildBit on a node that has a
	// "*" child. A cut's last set is its glue pseudo-set.
	parent uint32
	label  uint32 // arena offset of the node's own length-prefixed label
	sets   uint32 // index of the node's first set
}

// The flags viewNode.parent carries above the parent's index.
const (
	cutBit     = 1 << 31 // a delegation point
	wildBit    = 1 << 30 // a node with a "*" child
	parentMask = wildBit - 1
)

func (nd *viewNode) cut() bool { return nd.parent&cutBit != 0 }

// up returns the node's parent index.
func (nd *viewNode) up() uint32 { return nd.parent & parentMask }

// viewSet is one compiled RRset: its type and where its records' bodies
// start in the arena. They end where the next set's start.
type viewSet struct {
	body uint32
	typ  dnswire.Type
}

// relMark ends a name stored relative to the origin: the name's labels
// below the origin, then two relMark octets where the origin's wire form
// would be. No length octet of a label (at most 63) is 0xFF and a literal
// name ends in its root octet, 0, so a stored name's last octet says which
// it is. The wire path overwrites the two octets with a compression pointer
// to the origin's bytes in the question — two octets for two, so no RDLEN
// moves. A name is stored relative only when that is shorter, so never in
// the root zone.
const relMark = 0xFF

// storedNames reports which names of a record's RDATA may be stored
// relative to the origin: count names back to back, skip octets in. They
// are the names dnswire's packer compresses; SRV, DNAME and unknown types
// keep theirs in full.
func storedNames(t dnswire.Type) (skip, count int) {
	switch t {
	case dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypePTR:
		return 0, 1
	case dnswire.TypeMX:
		return 2, 1
	case dnswire.TypeSOA:
		return 0, 2
	}
	return 0, 0
}

// storeBody turns the record body at b — dnswire.AppendRRBody's TYPE CLASS
// TTL RDLEN RDATA, names uncompressed — into the form the arena keeps, in
// place, and returns it: the TYPE dropped, and each name storedNames lists
// stored relative to the origin apex when it is in the zone and that is
// shorter. RDLEN counts the stored RDATA. Nothing is written past what has
// been read, as the stored form is never the longer.
func storeBody(b, apex []byte) []byte {
	skip, count := storedNames(dnswire.Type(binary.BigEndian.Uint16(b)))
	n := copy(b, b[2:10+skip])
	r := 10 + skip
	for range count {
		l := wireNameLen(b[r:])
		name := b[r : r+l]
		r += l
		if len(apex) > 2 && isSubdomainWire(name, apex) {
			n += copy(b[n:], name[:l-len(apex)])
			b[n], b[n+1] = relMark, relMark
			n += 2
		} else {
			n += copy(b[n:], name)
		}
	}
	n += copy(b[n:], b[r:])
	binary.BigEndian.PutUint16(b[6:], uint16(n-8))
	return b[:n]
}

// appendFullName appends the stored name at the front of b in full wire
// form: a relative one's labels, then the origin's wire form apex.
func appendFullName[S string | []byte](dst, b []byte, apex S) []byte {
	l := storedNameLen(b)
	if b[l-1] == relMark {
		return append(append(dst, b[:l-2]...), apex...)
	}
	return append(dst, b[:l]...)
}

// Origin returns the compiled zone's apex.
func (v *View) Origin() dnswire.Name { return v.origin }

// zone compiles the records added so far into a new zone at origin, whose
// wire form getScratch put in sc.apex: how New, Build, ParseMaster,
// FromTransfer and Apply finish. Every name is handled in folded wire form,
// as the entries carry their owners. canonical order puts a name before
// everything below it and keeps an owner's records together by type, so the
// records are consumed front to back: nothing is sorted after canonical,
// and nothing is looked up but glue.
func (sc *scratch) zone(origin dnswire.Name) *Zone {
	ents := canonical(sc.ents)
	z := &Zone{version: versionSeq.Add(1)}
	v := &z.view
	apex := sc.apex
	v.originLabels = int32(wireLabels(apex))
	// Every name of the zone in canonical order — the apex, then each
	// owner, preceded by those of its ancestors no earlier owner sits at or
	// below (the empty non-terminals) — and where each name's records start.
	// An ancestor's wire name is a suffix of its descendant's.
	names, first := sc.nodeNames[:0], sc.first[:0]
	nsets := 1
	for i, e := range ents {
		if i > 0 && bytes.Equal(e.owner, ents[i-1].owner) {
			if e.typ != ents[i-1].typ {
				nsets++
			}
			continue
		}
		nsets++
		if i == 0 {
			names, first = append(names, apex), append(first, 0)
		}
		prev := apex
		if i > 0 {
			prev = ents[i-1].owner
		}
		k := 0
		for a := e.owner; len(a) != len(apex) && !isSubdomainWire(prev, a); a = a[1+a[0]:] {
			k++
		}
		// The owner and its k-1 nearest ancestors, filled in bottom up.
		n := len(names)
		names = slices.Grow(names, k)[:n+k]
		for j, a := n+k-1, e.owner; j >= n; j, a = j-1, a[1+a[0]:] {
			names[j] = a
			first = append(first, i)
		}
	}
	first = append(first, len(ents))
	sc.nodeNames, sc.first = names, first
	nn := len(names)
	for n := 1; n < nn; n++ {
		if slices.ContainsFunc(ents[first[n]:first[n+1]], func(e entry) bool { return e.typ == dnswire.TypeNS }) {
			nsets++ // a cut's glue pseudo-set
		}
	}

	v.tableMask = 1<<bits.Len(uint(nn+nn/2)) - 1 // load factor under 2/3
	v.idxMask = 1<<bits.Len(uint(nn)) - 1
	table := 4 * int(v.tableMask+1)
	v.arena = slices.Grow(sc.arena[:0], table)[:table]
	clear(v.arena)
	v.nodes, v.sets = slices.Grow(sc.nodes[:0], nn+1), slices.Grow(sc.sets[:0], nsets)
	// The nodes: a name's parent is the last node made one label up.
	var path [maxWireLabels + 1]uint32
	for i, name := range names {
		if i == 0 {
			v.nodes = append(v.nodes, viewNode{})
		} else {
			d := wireLabels(name) - int(v.originLabels)
			path[d] = v.addNode(path[d-1], name)
		}
	}
	v.nodes = append(v.nodes, viewNode{})
	// The sets, node by node; a cut's glue follows its sets.
	var target [256]byte
	for n := range nn {
		nd := &v.nodes[n]
		nd.sets = uint32(len(v.sets))
		nodeEnts := ents[first[n]:first[n+1]]
		for i := 0; i < len(nodeEnts); {
			typ := nodeEnts[i].typ
			v.sets = append(v.sets, viewSet{body: uint32(len(v.arena)), typ: typ})
			for ; i < len(nodeEnts) && nodeEnts[i].typ == typ; i++ {
				v.arena = append(v.arena, nodeEnts[i].body...)
			}
			if typ == dnswire.TypeNS && n != 0 {
				nd.parent |= cutBit
			}
		}
		if nd.cut() {
			v.sets = append(v.sets, viewSet{body: uint32(len(v.arena))})
			for _, e := range nodeEnts {
				if e.typ == dnswire.TypeNS {
					g := glueNode(names, first, ents, appendFullName(target[:0], e.body[8:], apex))
					v.arena = binary.LittleEndian.AppendUint32(v.arena, g)
				}
			}
		}
	}
	v.nodes[nn].sets = uint32(len(v.sets))
	v.sets = append(v.sets, viewSet{body: uint32(len(v.arena))})
	if nn > 0 {
		if s, ok := v.findSet(0, dnswire.TypeSOA); ok {
			v.soa = v.sets[s].body
			v.serial = soaSerial(v.arena[v.soa:])
		}
	}
	// The origin's wire form and text follow the arena into the slab.
	bodies := len(v.arena)
	v.arena = append(append(v.arena, apex...), origin.String()...)
	sc.lay(v, bodies, len(apex))
	return z
}

// lay moves the view's rows from scratch into its slab, allocated at its
// exact size: the nodes, the sets, then the arena, whose bytes past bodies
// are the origin's wire form, wire bytes long, and its text. It is the one
// place the slab is viewed as typed rows; none of them holds a pointer.
func (sc *scratch) lay(v *View, bodies, wire int) {
	nb, sb := len(v.nodes)*int(unsafe.Sizeof(viewNode{})), len(v.sets)*int(unsafe.Sizeof(viewSet{}))
	words := make([]uint32, (nb+sb+len(v.arena)+3)/4) // words, so the rows are aligned
	base := unsafe.Pointer(unsafe.SliceData(words))
	sc.nodes, v.nodes = v.nodes, unsafe.Slice((*viewNode)(base), len(v.nodes))
	sc.sets, v.sets = v.sets, unsafe.Slice((*viewSet)(unsafe.Add(base, nb)), len(v.sets))
	sc.arena, v.arena = v.arena, unsafe.Slice((*byte)(unsafe.Add(base, nb+sb)), len(v.arena))
	copy(v.nodes, sc.nodes)
	copy(v.sets, sc.sets)
	copy(v.arena, sc.arena)
	v.originWire = unsafe.String(&v.arena[bodies], wire)
	v.origin, _ = dnswire.ParseName(unsafe.String(&v.arena[bodies+wire], len(v.arena)-bodies-wire))
	v.arena = v.arena[:bodies:bodies]
	v.size = uint32(unsafe.Sizeof(Zone{})) + 4*uint32(len(words))
}

// glueNode returns the glue entry of an NS record whose target has the
// wire name target: the target's node index + 1 when it owns in-zone A or
// AAAA records, else 0. names, the zone's node names, and ents are in
// canonical order, and first[n] is where node n's records start, so the
// target is found by one binary search.
func glueNode(names [][]byte, first []int, ents []entry, target []byte) uint32 {
	g := sort.Search(len(names), func(i int) bool { return compareWire(names[i], target) >= 0 })
	if g < len(names) && bytes.Equal(names[g], target) && slices.ContainsFunc(ents[first[g]:first[g+1]], func(e entry) bool {
		return e.typ == dnswire.TypeA || e.typ == dnswire.TypeAAAA
	}) {
		return uint32(g) + 1
	}
	return 0
}

// soaSerial reads the serial out of a stored SOA body: past CLASS, TTL and
// RDLEN, then the two names.
func soaSerial(body []byte) uint32 {
	o := 8
	for range 2 {
		o += storedNameLen(body[o:])
	}
	return binary.BigEndian.Uint32(body[o:])
}

// wireLabels returns the label count of a wire name.
func wireLabels(name []byte) int {
	n := 0
	for o := 0; name[o] != 0; o += 1 + int(name[o]) {
		n++
	}
	return n
}

// wireNameLen returns the length of the uncompressed wire name at the front
// of b, root octet included.
func wireNameLen(b []byte) int {
	o := 0
	for b[o] != 0 {
		o += 1 + int(b[o])
	}
	return o + 1
}

// storedNameLen returns the length of the name at the front of b as the
// arena stores it: its labels, then the root octet or the two relMark
// octets.
func storedNameLen(b []byte) int {
	o := 0
	for ; b[o] != 0; o += 1 + int(b[o]) {
		if b[o] == relMark {
			return o + 2
		}
	}
	return o + 1
}

// addNode appends the node for the wire name n, a child of node parent, and
// enters it in the child table.
func (v *View) addNode(parent uint32, n []byte) uint32 {
	label := n[:1+n[0]]
	idx := uint32(len(v.nodes))
	v.nodes = append(v.nodes, viewNode{parent: parent, label: uint32(len(v.arena))})
	v.arena = append(v.arena, label...)
	if bytes.Equal(label, wildLabel) {
		v.nodes[parent].parent |= wildBit
	}
	h := childHash(parent, label)
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
		if have := v.arena[nd.label:]; nd.up() == parent && len(have) >= len(label) && string(have[:len(label)]) == string(label) {
			return idx, true
		}
	}
}

// wildLabel is the length-prefixed label of a wildcard owner.
var wildLabel = []byte{1, '*'}

// maxWireLabels bounds the per-name label-offset scratch (a 255-octet name
// holds at most 127 labels).
const maxWireLabels = 128

// labelOffsets is the scratch splitLabels fills: one offset per label plus
// the terminal root octet's.
type labelOffsets [maxWireLabels + 1]uint16

// splitLabels records where each label of a wire-form name starts, and after
// them where its end sits — the root octet, or the mark of a name stored
// relative to the origin — returning the label count (-1 for a name with
// more than maxWireLabels labels).
func splitLabels(name []byte, offs *labelOffsets) int {
	nl, o := 0, 0
	for ; name[o] != 0 && name[o] != relMark; o += 1 + int(name[o]) {
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
		node, cut = c, v.nodes[c].cut()
	}
	return node, i, cut
}

// empty reports a zone with no records: it has no apex node (nodes holds
// its sentinel alone), so every name in it — the origin included — is
// NXDOMAIN.
func (v *View) empty() bool { return len(v.nodes) == 1 }

// setRange returns the indexes of node's RRsets: [lo, hi), its glue
// pseudo-set excluded.
func (v *View) setRange(node uint32) (lo, hi uint32) {
	lo, hi = v.nodes[node].sets, v.nodes[node+1].sets
	if v.nodes[node].cut() {
		hi--
	}
	return lo, hi
}

// findSet returns the index of node's RRset of type t. (A cut's trailing
// glue pseudo-set is only ever reached by index.)
func (v *View) findSet(node uint32, t dnswire.Type) (uint32, bool) {
	for s, end := v.setRange(node); s < end; s++ {
		if typ := v.sets[s].typ; typ >= t {
			return s, typ == t
		}
	}
	return 0, false
}

// glueSet returns the index of a cut's glue pseudo-set: its last set.
func (v *View) glueSet(cut uint32) uint32 { return v.nodes[cut+1].sets - 1 }

// setWire returns set s's arena bytes: its records' bodies back to back.
func (v *View) setWire(s uint32) []byte { return v.arena[v.sets[s].body:v.sets[s+1].body] }

// firstBody cuts the first stored record body off a set's bytes.
func firstBody(w []byte) []byte { return w[:8+int(w[6])<<8+int(w[7])] }

// countBodies returns the number of stored record bodies in w.
func countBodies(w []byte) int {
	n := 0
	for ; len(w) > 0; n++ {
		w = w[len(firstBody(w)):]
	}
	return n
}

// source picks the node that answers for a located name: the node itself
// when the name exists, else the closest encloser's wildcard child (matching
// the legacy algorithm, which never looks past the first existing ancestor).
// ok is false when neither exists.
func (v *View) source(node uint32, exact bool) (src uint32, ok bool) {
	if exact {
		return node, true
	}
	if v.nodes[node].parent&wildBit == 0 {
		return 0, false
	}
	return v.child(node, wildLabel)
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

// node returns the node of a folded wire-form name, exactly: the walk does
// not stop at delegation points, so names below a cut (glue owners, for
// one) are found too.
func (v *View) node(name []byte) (uint32, bool) {
	var offs labelOffsets
	rel := splitLabels(name, &offs) - int(v.originLabels)
	if v.empty() || rel < 0 || string(name[offs[rel]:]) != v.originWire {
		return 0, false
	}
	node, found := uint32(0), true
	for i := rel; i > 0 && found; i-- {
		node, found = v.child(node, name[offs[i-1]:offs[i]])
	}
	return node, found
}

// nodeName spells node's owner name from the labels up the tree.
func (v *View) nodeName(node uint32) dnswire.Name {
	var buf [256]byte
	return ownerName(v.appendNodeWire(buf[:0], node))
}

// records appends set s's records, decoded from the arena and owned by
// owner.
func (v *View) records(dst []dnswire.RR, s uint32, owner dnswire.Name) []dnswire.RR {
	t := v.sets[s].typ
	for w := v.setWire(s); len(w) > 0; {
		rr, n := v.decode(owner, t, w)
		dst = append(dst, rr)
		w = w[n:]
	}
	return dst
}

// glue appends cut's glue records: for each of ns, the cut's NS records in
// their order, the target's A then AAAA records, owned by the target.
func (v *View) glue(dst []dnswire.RR, cut uint32, ns []dnswire.RR) []dnswire.RR {
	for k, gw := 0, v.setWire(v.glueSet(cut)); len(gw) > 0; k, gw = k+1, gw[4:] {
		g := binary.LittleEndian.Uint32(gw)
		if g == 0 {
			continue
		}
		for _, t := range [...]dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			if s, ok := v.findSet(g-1, t); ok {
				dst = v.records(dst, s, ns[k].(*dnswire.NS).Target)
			}
		}
	}
	return dst
}

// decode reads the stored record body of type t at the front of w,
// returning it and the stored bytes it took. The arena holds only bodies
// dnswire.AppendRRBody wrote, which it guarantees read back: one with no
// name stored relative to the origin reads as it is, and the records that
// may hold such names are read here, each name spelled in full.
func (v *View) decode(owner dnswire.Name, t dnswire.Type, w []byte) (dnswire.RR, int) {
	body := firstBody(w)
	skip, count := storedNames(t)
	if count == 0 {
		rr, _, err := dnswire.UnpackRRData(owner, t, body)
		if err != nil {
			panic("zone: arena record does not decode: " + err.Error())
		}
		return rr, len(body)
	}
	h := dnswire.RRHeader{Name: owner, Type: t, Class: dnswire.Class(binary.BigEndian.Uint16(body)), TTL: binary.BigEndian.Uint32(body[2:])}
	rd := body[8+skip:]
	var names [2]dnswire.Name
	for k := range count {
		var buf [256]byte
		names[k] = ownerName(appendFullName(buf[:0], rd, v.originWire))
		rd = rd[storedNameLen(rd):]
	}
	var rr dnswire.RR
	switch t {
	case dnswire.TypeNS:
		rr = &dnswire.NS{RRHeader: h, Target: names[0]}
	case dnswire.TypeCNAME:
		rr = &dnswire.CNAME{RRHeader: h, Target: names[0]}
	case dnswire.TypePTR:
		rr = &dnswire.PTR{RRHeader: h, Target: names[0]}
	case dnswire.TypeMX:
		rr = &dnswire.MX{RRHeader: h, Preference: binary.BigEndian.Uint16(body[8:]), Exchange: names[0]}
	default:
		be := binary.BigEndian
		rr = &dnswire.SOA{RRHeader: h, MName: names[0], RName: names[1],
			Serial: be.Uint32(rd), Refresh: be.Uint32(rd[4:]), Retry: be.Uint32(rd[8:]), Expire: be.Uint32(rd[12:]), Minimum: be.Uint32(rd[16:])}
	}
	return rr, len(body)
}

// entries appends the view's records to dst as build entries, in canonical
// order — owner, type, insertion — the apex SOA and glue left out: what
// Diff and Apply compare without decoding. Each body is the stored one, as
// scratch.add stores a record of the same origin. The owners are spelled out of
// the node labels into a buffer of their own; those already spelled keep
// their bytes when it grows.
func (v *View) entries(dst []entry) []entry {
	wire := make([]byte, 0, len(v.nodes)*len(v.originWire))
	for n := range uint32(len(v.nodes) - 1) {
		lo, hi := v.setRange(n)
		if lo == hi {
			continue
		}
		start := len(wire)
		wire = v.appendNodeWire(wire, n)
		owner := wire[start:len(wire):len(wire)]
		for s := lo; s < hi; s++ {
			typ := v.sets[s].typ
			if n == 0 && typ == dnswire.TypeSOA {
				continue
			}
			for w := v.setWire(s); len(w) > 0; {
				body := firstBody(w)
				dst = append(dst, entry{owner: owner, typ: typ, body: body})
				w = w[len(body):]
			}
		}
	}
	return dst
}

// appendNodeWire appends node's owner name in wire form: its labels, read
// from the arena up the tree, then the origin's.
func (v *View) appendNodeWire(buf []byte, node uint32) []byte {
	for ; node != 0; node = v.nodes[node].up() {
		l := v.arena[v.nodes[node].label:]
		buf = append(buf, l[:1+l[0]]...)
	}
	return append(buf, v.originWire...)
}

// soaRecord decodes the apex SOA, or returns nil when the zone has none.
func (v *View) soaRecord() *dnswire.SOA {
	if v.soa == 0 {
		return nil
	}
	rr, _ := v.decode(v.origin, dnswire.TypeSOA, v.arena[v.soa:])
	return rr.(*dnswire.SOA)
}

// Lookup is the structured read off the compiled view: the RFC 1034 §4.3.2
// algorithm with no lock. The records it returns are decoded from the arena
// for this call and are the caller's. Each is owned by a name the lookup
// already holds, so spelling owners allocates nothing: an answer (exact or
// wildcard-synthesized) by the name asked for, a referral by that name less
// the labels below the cut, glue by an NS target, the SOA by the origin.
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
			owner := name
			for range i {
				owner = owner.Parent()
			}
			ns, _ := v.findSet(node, dnswire.TypeNS)
			ans.Result = Delegation
			ans.NS = v.records(nil, ns, owner)
			ans.Glue = v.glue(nil, node, ans.NS)
			return ans
		}
		exact := i == 0
		if src, found := v.source(node, exact); found {
			if s, hit := v.findSet(src, qtype); hit {
				ans.Result = Success
				ans.Answer = v.records(ans.Answer, s, name)
				return ans
			}
			if exact && qtype == dnswire.TypeANY {
				// Every set at the node, ordered by type then insertion
				// order.
				if lo, hi := v.setRange(node); lo < hi {
					for s := lo; s < hi; s++ {
						ans.Answer = v.records(ans.Answer, s, name)
					}
					ans.Result = Success
					return ans
				}
			}
			if s, hit := v.findSet(src, dnswire.TypeCNAME); hit && qtype != dnswire.TypeCNAME {
				rr, _ := v.decode(name, dnswire.TypeCNAME, v.setWire(s))
				ans.Answer = append(ans.Answer, rr)
				cname := rr.(*dnswire.CNAME)
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
				ans.SOA = v.soaRecord()
				return ans
			}
		}
		ans.Result = NXDomain
		ans.SOA = v.soaRecord()
		return ans
	}
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
	// Name is never set: a wire answer spells no name. bench/trace.go,
	// which changes only with the benchmark, still copies it.
	Name dnswire.Name
}

// AppendAnswer assembles the answer/authority/glue sections for (qname,
// qtype) directly from pre-packed view bytes, appending to out. qname is
// the folded wire-form query name (dnswire.QueryView.AppendQnameFolded),
// already routed to this view (Store.FindWire), and qnameOff is the
// absolute message offset where the client's qname bytes sit, so owners —
// and the origin that ends every in-zone name the view stores relative to
// it — can be rendered as compression pointers into the question. TypeANY
// and a name outside the zone report ok=false: the caller must fall back to
// the decode path. The structured results match View.Lookup exactly,
// including the engine's convention that negative and referral responses
// drop any chased CNAMEs from the answer section.
func (v *View) AppendAnswer(out []byte, qname []byte, qnameOff int, qtype dnswire.Type) ([]byte, WireAnswer, bool) {
	var wa WireAnswer
	if qtype == dnswire.TypeANY {
		return out, wa, false
	}
	if v.empty() {
		wa.Result = NXDomain
		return out, wa, true
	}
	base := len(out)
	cur := qname       // the name being matched: the query's, then each target as stored
	curOff := qnameOff // absolute message offset of its copy in the message
	originPtr := 0     // absolute message offset of the origin's bytes in the question
	var offs labelOffsets
	for hop := 0; ; hop++ {
		// Split at label boundaries and hold the name to the origin there,
		// so stray byte coincidences can never alias. A target stored
		// relative to the origin is in the zone by construction: its labels
		// are all below the origin.
		nl := splitLabels(cur, &offs)
		rel := nl
		inZone := nl >= 0 && cur[offs[nl]] == relMark
		if !inZone {
			rel -= int(v.originLabels)
			inZone = rel >= 0 && string(cur[offs[rel]:]) == v.originWire
		}
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
			// back to their stored bytes on chased hops.
			out = out[:base]
			wa.Answer = 0
			ptr := -1
			if hop == 0 {
				ptr = curOff + int(offs[i])
			}
			out, wa.Authority, wa.Additional = v.appendReferral(out, node, ptr, cur[offs[i]:], originPtr)
			wa.Result = Delegation
			return out, wa, true
		}
		exact := i == 0
		if exact && hop == 0 {
			wa.Cacheable = true
		}
		if src, found := v.source(node, exact); found {
			if s, hit := v.findSet(src, qtype); hit {
				var n int
				out, n = v.appendSet(out, s, curOff, cur, originPtr)
				wa.Answer += n
				wa.Result = Success
				return out, wa, true
			}
			if s, hit := v.findSet(src, dnswire.TypeCNAME); hit && qtype != dnswire.TypeCNAME {
				body := firstBody(v.setWire(s))
				out = appendOwner(out, curOff, cur, originPtr)
				rec := len(out)
				out = appendRecord(out, dnswire.TypeCNAME, body, originPtr)
				wa.Answer++
				if hop >= maxCNAMEChain {
					wa.Result = Success
					return out, wa, true
				}
				// The target as stored is the next name matched; its copy
				// in the message becomes the next owner's pointer target.
				cur = body[8:]
				curOff = rec + 10
				continue
			}
		}
		out = out[:base]
		wa.Answer = 0
		wa.Result = NXDomain
		if exact {
			wa.Result = NoData
		}
		if v.soa != 0 {
			// The owner points at the origin's bytes inside the question.
			out = appendPtr(out, originPtr)
			out = appendRecord(out, dnswire.TypeSOA, firstBody(v.arena[v.soa:]), originPtr)
			wa.Authority = 1
		}
		return out, wa, true
	}
}

// appendReferral appends cut's NS records under one owner — a pointer to
// ptr, or the owner's stored bytes when ptr is -1 — and then its glue: each
// target's A then AAAA records, in NS order, owned by a pointer to the
// target's copy in the NS record just written. It returns the NS and glue
// record counts.
func (v *View) appendReferral(out []byte, cut uint32, ptr int, owner []byte, originPtr int) (_ []byte, ns, glue int) {
	s, _ := v.findSet(cut, dnswire.TypeNS)
	at := len(out) // where the next NS record starts
	out, ns = v.appendSet(out, s, ptr, owner, originPtr)
	ownerLen := len(owner)
	if pointable(ptr) {
		ownerLen = 2
	}
	gw := v.setWire(v.glueSet(cut))
	for w := v.setWire(s); len(w) > 0; gw = gw[4:] {
		body := firstBody(w)
		w = w[len(body):]
		target := at + ownerLen + 10
		at = target + len(body) - 8
		g := binary.LittleEndian.Uint32(gw)
		if g == 0 {
			continue
		}
		for _, t := range [...]dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			if a, ok := v.findSet(g-1, t); ok {
				var n int
				out, n = v.appendSet(out, a, target, body[8:], originPtr)
				glue += n
			}
		}
	}
	return out, ns, glue
}

// appendSet appends every record of set s under one owner (see
// appendOwner), returning the record count.
func (v *View) appendSet(out []byte, s uint32, ptr int, owner []byte, originPtr int) ([]byte, int) {
	t := v.sets[s].typ
	n := 0
	for w := v.setWire(s); len(w) > 0; n++ {
		body := firstBody(w)
		out = appendRecord(appendOwner(out, ptr, owner, originPtr), t, body, originPtr)
		w = w[len(body):]
	}
	return out, n
}

// appendRecord appends a stored record body of type t in wire form: its
// TYPE, then the body, the mark of each name stored relative to the origin
// overwritten with a compression pointer to the origin at originPtr.
func appendRecord(out []byte, t dnswire.Type, body []byte, originPtr int) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(t))
	start := len(out)
	out = append(out, body...)
	switch skip, count := storedNames(t); count {
	case 1:
		// The one name ends the RDATA.
		markToPtr(out[len(out)-2:], originPtr)
	case 2:
		for o := start + 8 + skip; count > 0; count-- {
			o += storedNameLen(out[o:])
			markToPtr(out[o-2:o], originPtr)
		}
	}
	return out
}

// markToPtr overwrites the two octets that end a stored name, when they are
// the relative mark, with a compression pointer to off.
func markToPtr(end []byte, off int) {
	if end[1] == relMark {
		end[0], end[1] = 0xC0|byte(off>>8), byte(off)
	}
}

// appendOwner renders a record owner: a compression pointer when the name
// already sits at a pointable message offset ptr, else its stored bytes
// (see appendName).
func appendOwner(out []byte, ptr int, name []byte, originPtr int) []byte {
	if pointable(ptr) {
		return appendPtr(out, ptr)
	}
	return appendName(out, name, originPtr)
}

// appendName appends a name as the view stores it, the mark of a relative
// one made a compression pointer to the origin at originPtr.
func appendName(out, name []byte, originPtr int) []byte {
	if k := len(name) - 2; name[k+1] == relMark {
		return appendPtr(append(out, name[:k]...), originPtr)
	}
	return append(out, name...)
}

// pointable reports whether a compression pointer can reach message offset
// off.
func pointable(off int) bool { return off >= 0 && off <= 0x3FFF }

// appendPtr appends a compression pointer to message offset off.
func appendPtr(out []byte, off int) []byte { return append(out, 0xC0|byte(off>>8), byte(off)) }
