package zone

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"akamaidns/internal/dnswire"
)

// rrStrings renders records sorted, for order-insensitive comparison (the
// legacy ANY path's ordering is nondeterministic).
func rrStrings(rrs []dnswire.RR) []string {
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String()
	}
	sort.Strings(out)
	return out
}

func answersEqual(a, b Answer) string {
	if a.Result != b.Result {
		return fmt.Sprintf("result %v vs %v", a.Result, b.Result)
	}
	if got, want := rrStrings(a.Answer), rrStrings(b.Answer); !eqStrings(got, want) {
		return fmt.Sprintf("answer %v vs %v", got, want)
	}
	if got, want := rrStrings(a.NS), rrStrings(b.NS); !eqStrings(got, want) {
		return fmt.Sprintf("ns %v vs %v", got, want)
	}
	if got, want := rrStrings(a.Glue), rrStrings(b.Glue); !eqStrings(got, want) {
		return fmt.Sprintf("glue %v vs %v", got, want)
	}
	if (a.SOA == nil) != (b.SOA == nil) {
		return fmt.Sprintf("soa %v vs %v", a.SOA, b.SOA)
	}
	if a.SOA != nil && a.SOA.String() != b.SOA.String() {
		return fmt.Sprintf("soa %v vs %v", a.SOA, b.SOA)
	}
	return ""
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parityQueries is the probe set used by the parity tests: every interesting
// name shape in exampleZone plus misses around them.
var parityQueries = []string{
	"example.com", "www.example.com", "alias.example.com", "chain.example.com",
	"ext.example.com", "a.wild.example.com", "a.b.wild.example.com",
	"wild.example.com", "a.cwild.example.com", "cwild.example.com",
	"txt.example.com", "mx.example.com", "deep.a.b.example.com",
	"a.b.example.com", "b.example.com", "sub.example.com",
	"www.sub.example.com", "ns1.sub.example.com", "missing.example.com",
	"a.missing.example.com", "ns2.example.com", "other.net", "example.net",
}

var parityTypes = []dnswire.Type{
	dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME,
	dnswire.TypeSOA, dnswire.TypeTXT, dnswire.TypeMX, dnswire.TypeANY,
}

// canExistChecker holds View.CanExist to the locked zone, two ways. It must
// agree with the zone's own name set and cut list: a name can exist when it
// sits at or below a cut, is a node, or has a "*" under its closest encloser,
// and not otherwise. And whatever that says, it must never deny a name that
// the oracle answers other than NXDOMAIN for a type the zone holds: a false
// negative penalizes legitimate traffic.
func canExistChecker(z *Zone, v *View) func(name dnswire.Name) string {
	cuts, ref := z.Cuts(), newOracle(z)
	var types []dnswire.Type
	for _, rr := range z.AllRecords() {
		if typ := rr.Header().Type; !slices.Contains(types, typ) {
			types = append(types, typ)
		}
	}
	oracle := func(name dnswire.Name) bool {
		if !name.IsSubdomainOf(z.Origin()) {
			return false
		}
		if z.NameExists(name) || slices.ContainsFunc(cuts, name.IsSubdomainOf) {
			return true
		}
		for enc := name; enc != z.Origin() && !enc.IsRoot(); {
			if enc = enc.Parent(); z.NameExists(enc) {
				star, err := enc.Prepend("*")
				return err == nil && z.NameExists(star)
			}
		}
		return false
	}
	return func(name dnswire.Name) string {
		got := v.CanExist(name.AppendWire(nil))
		if want := oracle(name); got != want {
			return fmt.Sprintf("CanExist(%s) = %v, zone says %v", name, got, want)
		}
		for _, typ := range types {
			if res := ref.Lookup(name, typ).Result; res != NXDomain && !got {
				return fmt.Sprintf("CanExist(%s) = false, Lookup %v answers %v", name, typ, res)
			}
		}
		return ""
	}
}

func TestViewLookupParity(t *testing.T) {
	z := buildZone(t)
	v, ref := z.View(), newOracle(z)
	canExist := canExistChecker(z, v)
	for _, q := range parityQueries {
		if diff := canExist(n(q)); diff != "" {
			t.Error(diff)
		}
		for _, typ := range parityTypes {
			want := ref.Lookup(n(q), typ)
			got := v.Lookup(n(q), typ)
			if diff := answersEqual(got, want); diff != "" {
				t.Errorf("%s %v: %s", q, typ, diff)
			}
		}
	}
}

// TestViewWireParity assembles responses through the zero-alloc wire path
// and checks the decoded records against the structured lookup, applying the
// engine's convention that referrals and negative answers drop chased
// CNAMEs.
func TestViewWireParity(t *testing.T) {
	z := buildZone(t)
	v := z.View()
	for _, q := range parityQueries {
		for _, typ := range parityTypes {
			name := n(q)
			msg, wa, ok := appendAnswerMessage(t, v, name, typ)
			if typ == dnswire.TypeANY {
				if ok {
					t.Errorf("%s ANY: wire path must decline", q)
				}
				continue
			}
			if !name.IsSubdomainOf(v.Origin()) {
				// Out-of-zone probes are the store router's job; the wire
				// path still reports NXDomain likewise, just skip.
				continue
			}
			if !ok {
				t.Errorf("%s %v: wire path declined", q, typ)
				continue
			}
			want := oracleLookup(z, name, typ)
			if wa.Result != want.Result {
				t.Errorf("%s %v: wire result %v, want %v", q, typ, wa.Result, want.Result)
				continue
			}
			wantAns, wantAuth, wantAdd := wireExpect(want)
			if got, want := rrStrings(msg.Answers), rrStrings(wantAns); !eqStrings(got, want) {
				t.Errorf("%s %v: answers %v, want %v", q, typ, got, want)
			}
			if got, want := rrStrings(msg.Authority), rrStrings(wantAuth); !eqStrings(got, want) {
				t.Errorf("%s %v: authority %v, want %v", q, typ, got, want)
			}
			if got, want := rrStrings(msg.Additional), rrStrings(wantAdd); !eqStrings(got, want) {
				t.Errorf("%s %v: additional %v, want %v", q, typ, got, want)
			}
		}
	}
}

// wireExpect maps a structured Answer to the sections the wire path must
// emit, applying the engine's convention that referrals and negative
// responses drop any chased CNAMEs from the answer section.
func wireExpect(want Answer) (ans, auth, add []dnswire.RR) {
	switch want.Result {
	case Success:
		ans = want.Answer
	case Delegation:
		auth = want.NS
		add = want.Glue
	case NXDomain, NoData:
		if want.SOA != nil {
			auth = []dnswire.RR{want.SOA}
		}
	}
	return ans, auth, add
}

// appendAnswerMessage runs the wire path inside a synthetic query message
// and decodes the result, exercising the compression pointers exactly as a
// resolver would see them.
func appendAnswerMessage(t *testing.T, v *View, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, WireAnswer, bool) {
	t.Helper()
	qw := qname.AppendWire(nil)
	buf := make([]byte, 0, 1024)
	buf = append(buf, 0x12, 0x34, 0x84, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
	buf = append(buf, qw...)
	buf = append(buf, byte(qtype>>8), byte(qtype), 0, 1)
	out, wa, ok := v.AppendAnswer(buf, qw, 12, qtype)
	if !ok {
		return nil, wa, false
	}
	out[6], out[7] = byte(wa.Answer>>8), byte(wa.Answer)
	out[8], out[9] = byte(wa.Authority>>8), byte(wa.Authority)
	out[10], out[11] = byte(wa.Additional>>8), byte(wa.Additional)
	msg, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatalf("%s %v: unpack: %v (wire % x)", qname, qtype, err, out)
	}
	// Only the names dnswire's packer compresses may be compression
	// pointers (RFC 3597 §4): any other record carries its RDATA whole.
	for _, sec := range [][]dnswire.RR{msg.Answers, msg.Authority, msg.Additional} {
		for _, rr := range sec {
			if _, count := storedNames(rr.Header().Type); count > 0 {
				continue
			}
			if body, err := dnswire.AppendRRBody(nil, rr); err != nil || !bytes.Contains(out, body) {
				t.Fatalf("%s %v: %v is not in the wire whole (wire % x)", qname, qtype, rr, out)
			}
		}
	}
	return msg, wa, true
}

// TestViewWireZeroAlloc pins the no-allocation contract of the miss path:
// assembling NXDOMAIN, NoData, delegation, and plain-hit responses into a
// caller-owned buffer must not allocate.
func TestViewWireZeroAlloc(t *testing.T) {
	z := buildZone(t)
	v := z.View()
	queries := []struct {
		name  dnswire.Name
		qtype dnswire.Type
	}{
		{n("missing.example.com"), dnswire.TypeA},
		{n("www.example.com"), dnswire.TypeAAAA},
		{n("www.sub.example.com"), dnswire.TypeA},
		{n("www.example.com"), dnswire.TypeA},
		{n("a.wild.example.com"), dnswire.TypeA},
	}
	for _, q := range queries {
		qw := q.name.AppendWire(nil)
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			_, _, ok := v.AppendAnswer(buf[:0], qw, 12, q.qtype)
			if !ok {
				t.Fatalf("%s: wire path declined", q.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s %v: %v allocs, want 0", q.name, q.qtype, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { v.CanExist(qw) }); allocs != 0 {
			t.Errorf("CanExist(%s): %v allocs, want 0", q.name, allocs)
		}
	}
}

// TestViewInvalidation holds the RCU contract: a zone compiles its view once
// and keeps serving that snapshot; the next version is a new zone whose view
// shows the new data, and the old version's view is left as it was.
func TestViewInvalidation(t *testing.T) {
	z := buildZone(t)
	v1 := z.View()
	if z.View() != v1 {
		t.Fatal("stable zone must reuse its compiled view")
	}
	next, err := Apply(z, Delta{FromSerial: z.Serial(), ToSerial: z.Serial() + 1,
		Added: []dnswire.RR{mustRRHelper(t, "new.example.com.", "A", "192.0.2.200")}})
	if err != nil {
		t.Fatal(err)
	}
	v2 := next.View()
	if v2 == v1 || z.View() != v1 {
		t.Fatal("each version must have its own compiled view")
	}
	if got := v2.Lookup(n("new.example.com"), dnswire.TypeA); got.Result != Success {
		t.Fatalf("new record not visible in the next version's view: %v", got.Result)
	}
	if got := v1.Lookup(n("new.example.com"), dnswire.TypeA); got.Result != NXDomain {
		t.Fatalf("old snapshot must be immutable: %v", got.Result)
	}
}

func mustRRHelper(t *testing.T, owner, typ, rdata string) dnswire.RR {
	t.Helper()
	zz, err := ParseMaster(strings.NewReader(fmt.Sprintf("%s 300 IN %s %s\n", owner, typ, rdata)), n("example.com"))
	if err != nil {
		t.Fatal(err)
	}
	rrs := zz.RRset(dnswire.MustName(owner), dnswire.TypeA)
	if len(rrs) != 1 {
		t.Fatalf("helper parsed %d records", len(rrs))
	}
	return rrs[0]
}

// TestStoreFindParity checks the lock-free router against the reference
// linear scan across a spread of zones and probe names.
func TestStoreFindParity(t *testing.T) {
	s := NewStore()
	origins := []string{"example.com.", "sub.example.com.", "example.net.", "com.", "deep.a.b.example.org."}
	zones := map[string]*Zone{}
	for _, o := range origins {
		z := New(n(o))
		s.Put(z)
		zones[o] = z
	}
	probes := map[string]string{
		"example.com.":            "example.com.",
		"www.example.com.":        "example.com.",
		"www.sub.example.com.":    "sub.example.com.",
		"sub.example.com.":        "sub.example.com.",
		"a.com.":                  "com.",
		"com.":                    "com.",
		"example.org.":            "",
		"deep.a.b.example.org.":   "deep.a.b.example.org.",
		"x.deep.a.b.example.org.": "deep.a.b.example.org.",
		"b.example.org.":          "",
		"net.":                    "",
		".":                       "",
	}
	for probe, want := range probes {
		got := s.Find(n(probe))
		if want == "" {
			if got != nil {
				t.Errorf("Find(%s) = %s, want nil", probe, got.Origin())
			}
			continue
		}
		if got != zones[want] {
			t.Errorf("Find(%s) = %v, want %s", probe, got, want)
		}
		// Wire-form router must agree and report the origin's offset.
		qw := n(probe).AppendWire(nil)
		zw, off, ok := s.FindWire(qw)
		if !ok || zw != zones[want] {
			t.Errorf("FindWire(%s) = %v,%v", probe, zw, ok)
			continue
		}
		wantOff := len(qw) - zones[want].Origin().WireLen()
		if off != wantOff {
			t.Errorf("FindWire(%s) offset = %d, want %d", probe, off, wantOff)
		}
	}
	// Root zone routes everything not matched more specifically.
	root := New(dnswire.Root)
	s.Put(root)
	if got := s.Find(n("unmatched.test.")); got != root {
		t.Errorf("root fallback: got %v", got)
	}
	if zw, off, ok := s.FindWire(n("unmatched.test.").AppendWire(nil)); !ok || zw != root || off != len("unmatched.test.") {
		t.Errorf("root FindWire: %v %d %v", zw, off, ok)
	}
	// Deleting restores the misses.
	s.Delete(dnswire.Root)
	if got := s.Find(n("unmatched.test.")); got != nil {
		t.Errorf("after delete: got %v", got.Origin())
	}
	if s.Gen() == 0 {
		t.Error("router rebuilds not counted")
	}
}

func TestStoreFindWireZeroAlloc(t *testing.T) {
	s := NewStore()
	for i := 0; i < 64; i++ {
		s.Put(New(n(fmt.Sprintf("zone%02d.example.", i))))
	}
	hit := n("deep.name.zone63.example.").AppendWire(nil)
	miss := n("deep.name.other.example.").AppendWire(nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := s.FindWire(hit); !ok {
			t.Fatal("hit missed")
		}
		if _, _, ok := s.FindWire(miss); ok {
			t.Fatal("miss hit")
		}
	})
	if allocs != 0 {
		t.Errorf("FindWire allocs = %v, want 0", allocs)
	}
}

// TestZoneHeapPerZone pins what a hosted zone costs to hold at rest — the
// number every machine of the fleet multiplies by its zone count: over
// 2 000 bench-shaped zones (22 records, 20 names each) a zone may keep at
// most 1200 B and 2.5 objects live (it reads 1 180 B and 2): its header,
// which holds the view, and the view's slab, in size class 1 024. The
// origin's text is in the slab, so the zone pins no string of its
// caller's. (7 371 B and 83 objects while the zone kept its records in two
// maps; 4 499 B and 56 while every record resolved its own copy of each
// host name; 4 334 B and 49 while the zone kept its records beside the
// view, whose names and records slabs pointed back at them; 5.75 objects
// while the view held the caller's origin; 2 116 B and 4.75 while the
// nodes, the sets and a block of every node's owner text were slabs of
// their own beside the arena; 1 564 B while bodies kept their TYPE and
// in-zone names in full, sets their record ordinals, nodes their wildcard
// child and glue copies of its records.)
func TestZoneHeapPerZone(t *testing.T) {
	const n = 2000
	bytes, objects := zoneHeap(t, n)
	t.Logf("%d B and %.3f heap objects per zone", bytes/n, float64(objects)/n)
	if bytes > 1200*n {
		t.Errorf("zones cost %d B each, want <= 1200", bytes/n)
	}
	if 2*objects > 5*n {
		t.Errorf("zones cost %.2f heap objects each, want <= 2.5", float64(objects)/n)
	}
}

// TestViewFootprint pins what a zone's view is made of: one slab that the
// rows, the arena and the origin's two spellings all lie in, holding no
// pointer for the collector to trace and no record; rows of 12 B per node
// and 8 B per set; a bench zone's slab within size class 1 024, whatever
// the corpus origin's length, and a size ViewBytes reports within the
// per-zone bound of TestZoneHeapPerZone; and answering from it without
// allocating.
func TestViewFootprint(t *testing.T) {
	if nb, sb := unsafe.Sizeof(viewNode{}), unsafe.Sizeof(viewSet{}); nb != 12 || sb != 8 {
		t.Errorf("rows of %d B per node and %d B per set, want 12 and 8", nb, sb)
	}
	zones := benchZones(t, 1)
	v := zones[0].View()
	// The bench corpus's origins are 10 to 17 octets in wire form, and the
	// slab holds the origin twice: its wire form and its text.
	for _, origin := range []string{"abcde.io.", "abcdefghij.info."} {
		_, text := benchZoneText(0)
		z, err := ParseMaster(strings.NewReader(text), n(origin))
		if err != nil {
			t.Fatal(err)
		}
		slab := z.ViewBytes() - int(unsafe.Sizeof(Zone{}))
		t.Logf("a bench zone at %s: %d B slab", origin, slab)
		if slab > 1024 {
			t.Errorf("a bench zone at %s keeps a %d B slab, want <= 1024", origin, slab)
		}
	}
	// Every field of the view that points anywhere points into the slab,
	// which starts at the first node row and is as long as ViewBytes counts
	// beyond the header.
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(v.nodes)))
	hi := lo + uintptr(zones[0].ViewBytes()) - unsafe.Sizeof(Zone{})
	origin := v.origin.String()
	for name, f := range map[string]struct {
		p unsafe.Pointer
		n uintptr
	}{
		"nodes":      {unsafe.Pointer(unsafe.SliceData(v.nodes)), uintptr(len(v.nodes)) * unsafe.Sizeof(viewNode{})},
		"sets":       {unsafe.Pointer(unsafe.SliceData(v.sets)), uintptr(len(v.sets)) * unsafe.Sizeof(viewSet{})},
		"arena":      {unsafe.Pointer(unsafe.SliceData(v.arena)), uintptr(len(v.arena))},
		"originWire": {unsafe.Pointer(unsafe.StringData(v.originWire)), uintptr(len(v.originWire))},
		"origin":     {unsafe.Pointer(unsafe.StringData(origin)), uintptr(len(origin))},
	} {
		if p := uintptr(f.p); p < lo || p+f.n > hi {
			t.Errorf("View.%s lies outside the slab", name)
		}
	}
	pointing := 0
	vt := reflect.TypeOf(View{})
	for i := 0; i < vt.NumField(); i++ {
		f := vt.Field(i)
		if hasPointers(f.Type) {
			pointing++
		}
		if f.Type.Kind() == reflect.Slice && hasPointers(f.Type.Elem()) {
			t.Errorf("View.%s is a pointer-bearing slab", f.Name)
		}
	}
	if pointing != 5 {
		t.Errorf("View has %d fields that point, want the 5 checked above", pointing)
	}
	if got := zones[0].ViewBytes(); got <= 0 || got > 1200 {
		t.Errorf("ViewBytes = %d, want within (0, 1200]", got)
	}

	buf := make([]byte, 0, 4096)
	for _, q := range []string{"r4nd0m." + origin, "h.sub." + origin, "w.wild." + origin, "alias." + origin, "www." + origin} {
		qw := n2w(q)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, ok := v.AppendAnswer(buf[:0], qw, 12, dnswire.TypeA); !ok {
				t.Fatalf("%s: wire path declined", q)
			}
		}); allocs != 0 {
			t.Errorf("%s: AppendAnswer allocates %v times, want 0", q, allocs)
		}
	}
}

func n2w(s string) []byte { return n(s).AppendWire(nil) }

// TestLookupOwners puts the bench zone's query shapes and
// TestLookupCornerCases' rows to View.Lookup. Every record's owner must be
// the oracle's, though the view spells none from text of its own: each is
// the query name, a suffix of it, a decoded target or the origin. And no
// row may allocate more than it did while the view kept every owner's text
// in a names block: taking owners from the question costs nothing.
func TestLookupOwners(t *testing.T) {
	type row struct {
		z      *Zone
		qname  string
		qtype  dnswire.Type
		allocs float64
	}
	var rows []row
	bench := benchZones(t, 1)[0]
	for _, q := range []struct {
		label  string // below the origin
		qtype  dnswire.Type
		allocs float64
	}{
		{"", dnswire.TypeSOA, 4}, {"", dnswire.TypeNS, 6}, {"", dnswire.TypeANY, 10},
		{"www.", dnswire.TypeA, 2}, {"www.", dnswire.TypeAAAA, 3}, {"static.", dnswire.TypeAAAA, 2},
		{"www.", dnswire.TypeANY, 2}, {"alias.", dnswire.TypeA, 8}, {"alias.", dnswire.TypeCNAME, 3},
		{"w.wild.", dnswire.TypeA, 2}, {"wild.", dnswire.TypeA, 3}, {"sub.", dnswire.TypeNS, 10},
		{"h.sub.", dnswire.TypeA, 10}, {"ns1.sub.", dnswire.TypeA, 10}, {"r4nd0m.", dnswire.TypeA, 3},
		{"a.b.r4nd0m.", dnswire.TypeTXT, 3},
	} {
		rows = append(rows, row{bench, q.label + bench.Origin().String(), q.qtype, q.allocs})
	}
	corner := cornerZone(t)
	for _, c := range cornerCases {
		rows = append(rows, row{corner, c.qname, c.qtype, c.allocs})
	}
	owners := func(rrs []dnswire.RR) []dnswire.Name {
		out := make([]dnswire.Name, len(rrs))
		for i, rr := range rrs {
			out[i] = rr.Header().Name
		}
		return out
	}
	for _, r := range rows {
		v, q := r.z.View(), n(r.qname)
		got, want := v.Lookup(q, r.qtype), newOracle(r.z).Lookup(q, r.qtype)
		for _, sec := range [][2][]dnswire.RR{{got.Answer, want.Answer}, {got.NS, want.NS}, {got.Glue, want.Glue}} {
			if g, w := owners(sec[0]), owners(sec[1]); !slices.Equal(g, w) {
				t.Errorf("%s %v: owners %v, oracle %v", r.qname, r.qtype, g, w)
			}
		}
		if (got.SOA == nil) != (want.SOA == nil) || got.SOA != nil && got.SOA.Name != want.SOA.Name {
			t.Errorf("%s %v: SOA %v, oracle %v", r.qname, r.qtype, got.SOA, want.SOA)
		}
		if allocs := testing.AllocsPerRun(50, func() { v.Lookup(q, r.qtype) }); allocs > r.allocs {
			t.Errorf("%s %v: Lookup allocates %v times, want <= %v", r.qname, r.qtype, allocs, r.allocs)
		}
	}
}

// hasPointers reports whether values of t hold anything the garbage
// collector has to trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.String, reflect.Interface, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestSetSerialCopyOnWrite: the next version at a new serial — Apply with
// an empty delta, which copies its base's bodies out of the base's arena —
// must leave the base as it was. A view of the version before keeps
// returning and packing the old serial while readers run against both it
// and the newest version's view (the race detector sees any write-through).
func TestSetSerialCopyOnWrite(t *testing.T) {
	z := buildZone(t)
	var latest atomic.Pointer[Zone]
	latest.Store(z)
	const oldSerial = 2020010101
	old := z.View()
	miss := n2w("nope.example.com")
	check := func(v *View, serial uint32) error {
		if got := v.Lookup(n("nope.example.com"), dnswire.TypeA); got.SOA == nil || got.SOA.Serial != serial {
			return fmt.Errorf("Lookup SOA = %v, want serial %d", got.SOA, serial)
		}
		if got := v.Lookup(n("example.com"), dnswire.TypeSOA); len(got.Answer) != 1 || got.Answer[0].(*dnswire.SOA).Serial != serial {
			return fmt.Errorf("SOA answer = %v, want serial %d", got.Answer, serial)
		}
		buf := append(make([]byte, 0, 512), 0, 0, 0x84, 0, 0, 1, 0, 0, 0, 0, 0, 0)
		buf = append(append(buf, miss...), 0, 1, 0, 1)
		out, wa, ok := v.AppendAnswer(buf, miss, 12, dnswire.TypeA)
		if !ok || wa.Result != NXDomain || wa.Authority != 1 {
			return fmt.Errorf("wire miss: ok=%v %+v", ok, wa)
		}
		out[9] = 1
		msg, err := dnswire.Unpack(out)
		if err != nil {
			return err
		}
		if got := msg.Authority[0].(*dnswire.SOA).Serial; got != serial {
			return fmt.Errorf("packed SOA serial = %d, want %d", got, serial)
		}
		return nil
	}
	// The writer builds versions for as long as the readers read.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				if err := check(old, oldSerial); err != nil {
					t.Errorf("view taken before the bumps: %v", err)
					return
				}
				cur := latest.Load()
				if err := check(cur.View(), cur.Serial()); err != nil {
					t.Errorf("current view: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	serial := uint32(oldSerial)
	for bumping := true; bumping; {
		select {
		case <-done:
			bumping = false
		default:
			cur := latest.Load()
			serial++
			next, err := Apply(cur, Delta{FromSerial: cur.Serial(), ToSerial: serial})
			if err != nil {
				t.Fatal(err)
			}
			latest.Store(next)
		}
	}
	if err := check(old, oldSerial); err != nil {
		t.Fatalf("view taken before the bumps, after them: %v", err)
	}
	if err := check(latest.Load().View(), serial); err != nil {
		t.Fatalf("after the bumps: %v", err)
	}
	if cur := latest.Load(); cur.Serial() != serial || cur.SOA().Serial != serial || z.Serial() != oldSerial {
		t.Fatalf("serials = %d / %d, want %d; first version %d, want %d", cur.Serial(), cur.SOA().Serial, serial, z.Serial(), oldSerial)
	}
}

// TestStoreViewCounters: the store's view counters are moved by the zones
// as they are installed, replaced and leave. ViewRebuilds counts the views
// installed — replacing a zone must not take its install back out — and
// ViewBytes is exactly the footprint of the installed zones.
func TestStoreViewCounters(t *testing.T) {
	s := NewStore()
	zones := benchZones(t, 8)
	installed := func() (sum int64) {
		for _, o := range s.Origins() {
			sum += int64(s.Get(o).ViewBytes())
		}
		return sum
	}
	check := func(when string, rebuilds uint64) {
		t.Helper()
		if s.ViewRebuilds() != rebuilds || s.ViewBytes() != installed() {
			t.Fatalf("%s: %d rebuilds, %d bytes (installed zones hold %d), want %d rebuilds",
				when, s.ViewRebuilds(), s.ViewBytes(), installed(), rebuilds)
		}
	}
	check("fresh store", 0)
	s.Update(func(tx *Tx) {
		for _, z := range zones {
			tx.Put(z)
		}
	})
	check("after installing", 8)
	if s.ViewBytes() <= 0 {
		t.Fatal("installed zones count no bytes")
	}
	// Installing a zone again changes nothing.
	s.Put(zones[0])
	check("after installing a zone twice", 8)
	// Swapping in a zone's next version swaps the old view's bytes for the
	// newcomer's, and counts one install more.
	next, err := Apply(zones[0], Delta{FromSerial: zones[0].Serial(), ToSerial: zones[0].Serial() + 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(next)
	check("after the swap", 9)
	// The replaced zone is out of the store: it still reads, for nothing.
	if zones[0].View().Lookup(zones[0].Origin(), dnswire.TypeSOA).Result != Success || zones[0].ViewBytes() <= 0 {
		t.Fatal("replaced zone lost its view")
	}
	check("after reading the replaced zone", 9)
	s.Update(func(tx *Tx) {
		for _, o := range s.Origins() {
			tx.Delete(o)
		}
	})
	if s.ViewRebuilds() != 9 || s.ViewBytes() != 0 {
		t.Fatalf("emptied store: %d rebuilds, %d bytes", s.ViewRebuilds(), s.ViewBytes())
	}
}

// TestViewLargeZoneParity drives the child table well past one cache line's
// worth of slots: 30 000 names at depths 1 to 3 with shared and colliding
// labels, every one of which — and a miss beside it — must resolve as the
// locked lookup does.
func TestViewLargeZoneParity(t *testing.T) {
	var owners []string
	for i := 0; i < 10000; i++ {
		owners = append(owners,
			fmt.Sprintf("h%d.big.test", i),
			fmt.Sprintf("h%d.h%d.big.test", i%100, i),   // same labels, other parents
			fmt.Sprintf("x.ent%d.h%d.big.test", i, i%7), // below an empty non-terminal
		)
	}
	recs := make([]dnswire.RR, len(owners))
	for i, o := range owners {
		recs[i] = &dnswire.A{RRHeader: dnswire.RRHeader{Name: n(o), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
			Addr: mustAddr("192.0.2.1")}
	}
	z := mustBuild(t, n("big.test"), recs...)
	v, ref := z.View(), newOracle(z)
	canExist := canExistChecker(z, v)
	buf := make([]byte, 0, 512)
	for _, o := range owners {
		for _, q := range []string{o, "nope." + o, n(o).Parent().String()} {
			if diff := canExist(n(q)); diff != "" {
				t.Fatal(diff)
			}
			want := ref.Lookup(n(q), dnswire.TypeA)
			if diff := answersEqual(v.Lookup(n(q), dnswire.TypeA), want); diff != "" {
				t.Fatalf("%s: %s", q, diff)
			}
			if _, wa, ok := v.AppendAnswer(buf[:0], n2w(q), 12, dnswire.TypeA); !ok || wa.Result != want.Result || wa.Answer != len(want.Answer) {
				t.Fatalf("%s: wire ok=%v %+v, want %v with %d answers", q, ok, wa, want.Result, len(want.Answer))
			}
		}
	}
}
