package zone

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

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

// TestViewInvalidation holds the RCU contract: mutations invalidate the
// compiled view, readers see the new data, and an untouched zone keeps
// serving the same snapshot without recompiling.
func TestViewInvalidation(t *testing.T) {
	z := buildZone(t)
	v1 := z.View()
	if z.View() != v1 {
		t.Fatal("stable zone must reuse its compiled view")
	}
	if err := z.Add(mustRRHelper(t, "new.example.com.", "A", "192.0.2.200")); err != nil {
		t.Fatal(err)
	}
	v2 := z.View()
	if v2 == v1 {
		t.Fatal("mutation must invalidate the compiled view")
	}
	if got := v2.Lookup(n("new.example.com"), dnswire.TypeA); got.Result != Success {
		t.Fatalf("new record not visible in recompiled view: %v", got.Result)
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

// TestViewConcurrentMutate hammers the compiled view from reader goroutines
// while a writer builds the zone on; run under -race this proves the serve
// path takes no read-side locks yet never observes a torn snapshot.
func TestViewConcurrentMutate(t *testing.T) {
	z := buildZone(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qw := n("www.example.com").AppendWire(nil)
			miss := n("nope.example.com").AppendWire(nil)
			buf := make([]byte, 0, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := z.View()
				if got := v.Lookup(n("www.example.com"), dnswire.TypeA); got.Result != Success {
					t.Errorf("www lookup: %v", got.Result)
					return
				}
				if _, wa, ok := v.AppendAnswer(buf[:0], qw, 12, dnswire.TypeA); !ok || wa.Result != Success {
					t.Errorf("wire hit failed: ok=%v result=%v", ok, wa.Result)
					return
				}
				if _, wa, ok := v.AppendAnswer(buf[:0], miss, 12, dnswire.TypeA); !ok || wa.Result != NXDomain {
					t.Errorf("wire miss failed: ok=%v result=%v", ok, wa.Result)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		rr := mustRRHelper(t, fmt.Sprintf("gen%d.example.com.", i), "A", "192.0.2.77")
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
		z.SetSerial(uint32(2020010102 + i))
	}
	close(stop)
	wg.Wait()
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
	if s.RouterRebuilds() == 0 {
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
// 2 000 bench-shaped zones, zone and view together may keep at most 4.5 KB
// and 60 objects live each (7 371 B and 83 objects while the zone kept its
// records in two maps; 4 502 B and 56 when written).
func TestZoneHeapPerZone(t *testing.T) {
	const n = 2000
	bytes, objects := zoneHeap(t, n)
	t.Logf("%d B and %.2f heap objects per zone", bytes/n, float64(objects)/n)
	if bytes > 4608*n {
		t.Errorf("zones cost %d B each, want <= 4608", bytes/n)
	}
	if objects > 60*n {
		t.Errorf("zones cost %.2f heap objects each, want <= 60", float64(objects)/n)
	}
}

// TestViewFootprint pins what a compiled view costs to hold: compiled over
// 2 000 bench-shaped zones (22 records, 20 names each), a view may add at
// most 3 KB and 6 objects to the live heap — the header plus one slice each
// for the arena, nodes, sets, names and records — of which only the names
// and records slabs may hold pointers for the collector to trace, and
// answering from it must not allocate.
func TestViewFootprint(t *testing.T) {
	const n = 2000
	zones := benchZones(t, n)
	bytes, objects := viewHeap(zones)
	t.Logf("%d B and %.2f heap objects per view", bytes/n, float64(objects)/n)
	if bytes > 3<<10*n {
		t.Errorf("views cost %d B each, want <= 3072", bytes/n)
	}
	if objects > 6*n {
		t.Errorf("views cost %.2f heap objects each, want <= 6", float64(objects)/n)
	}
	// Every slice field of the header is one heap object (originWire and
	// soaBody alias the zone's routing key and the arena); count the ones
	// whose elements the collector must scan.
	slabs, scanned := 0, 0
	vt := reflect.TypeOf(View{})
	for i := 0; i < vt.NumField(); i++ {
		f := vt.Field(i)
		if f.Type.Kind() != reflect.Slice || f.Name == "soaBody" {
			continue
		}
		slabs++
		if hasPointers(f.Type.Elem()) {
			scanned++
		}
	}
	if slabs != 5 || scanned != 2 {
		t.Errorf("View has %d slabs, %d of them pointer-bearing; want 5 and 2", slabs, scanned)
	}
	if got := zones[0].ViewBytes(); got <= 0 || got > 3<<10 {
		t.Errorf("ViewBytes = %d, want within (0, 3072]", got)
	}

	v := zones[0].View()
	origin := v.Origin().String()
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

// TestSetSerialCopyOnWrite: views share the zone's records, so a serial bump
// must replace the SOA rather than write through it. A view taken before
// the bump keeps returning and packing the old serial, while readers run
// against both (the race detector sees any write-through).
func TestSetSerialCopyOnWrite(t *testing.T) {
	z := buildZone(t)
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
	// The writer bumps for as long as the readers read.
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
				v := z.View()
				if err := check(v, v.Serial()); err != nil {
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
			serial++
			z.SetSerial(serial)
		}
	}
	if err := check(old, oldSerial); err != nil {
		t.Fatalf("view taken before the bumps, after them: %v", err)
	}
	if err := check(z.View(), serial); err != nil {
		t.Fatalf("after the bumps: %v", err)
	}
	if z.Serial() != serial || z.SOA().Serial != serial {
		t.Fatalf("zone serial = %d / %d, want %d", z.Serial(), z.SOA().Serial, serial)
	}
}

// TestStoreViewCounters: the store's view counters are moved by the zones
// as they compile, get replaced and leave. ViewRebuilds is a total —
// replacing a zone must not take its compiles back out — and ViewBytes is
// exactly the footprint of the views installed zones publish.
func TestStoreViewCounters(t *testing.T) {
	s := NewStore()
	zones := benchZones(t, 8)
	s.Update(func(tx *Tx) {
		for _, z := range zones {
			tx.Put(z)
		}
	})
	published := func() (sum int64) {
		for _, o := range s.Origins() {
			sum += int64(s.Get(o).ViewBytes())
		}
		return sum
	}
	if s.ViewRebuilds() != 0 || s.ViewBytes() != 0 {
		t.Fatalf("fresh store: %d rebuilds, %d bytes", s.ViewRebuilds(), s.ViewBytes())
	}
	for _, z := range zones {
		z.View()
		z.View()
	}
	if s.ViewRebuilds() != 8 || s.ViewBytes() != published() || s.ViewBytes() <= 0 {
		t.Fatalf("after compiling: %d rebuilds, %d bytes (zones publish %d)", s.ViewRebuilds(), s.ViewBytes(), published())
	}
	// Swapping in a zone's next version takes the old view's bytes out until
	// the newcomer's first reader compiles it.
	next, err := Apply(zones[0], Delta{FromSerial: zones[0].Serial(), ToSerial: zones[0].Serial() + 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(next)
	if s.ViewBytes() != published() || next.ViewBytes() != 0 {
		t.Fatalf("after the swap: %d bytes (zones publish %d)", s.ViewBytes(), published())
	}
	next.View()
	if s.ViewRebuilds() != 9 || s.ViewBytes() != published() {
		t.Fatalf("after compiling the next version: %d rebuilds, %d bytes (zones publish %d)", s.ViewRebuilds(), s.ViewBytes(), published())
	}
	// Replacing a zone (what every control-plane apply does) swaps its bytes
	// for the newcomer's — here compiled before install — and keeps the total.
	origin, text := benchZoneText(1)
	repl := MustParseMaster(text, origin)
	repl.View()
	s.Put(repl)
	if s.ViewRebuilds() != 9 || s.ViewBytes() != published() {
		t.Fatalf("after replacing: %d rebuilds, %d bytes (zones publish %d)", s.ViewRebuilds(), s.ViewBytes(), published())
	}
	// The replaced zone is out of the store: reading it counts for nothing.
	if zones[1].View() == nil || zones[1].ViewBytes() <= 0 {
		t.Fatal("replaced zone lost its view")
	}
	if s.ViewRebuilds() != 9 || s.ViewBytes() != published() {
		t.Fatalf("replaced zone still counted: %d rebuilds, %d bytes (zones publish %d)", s.ViewRebuilds(), s.ViewBytes(), published())
	}
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
	z := New(n("big.test"))
	add := func(owner string) {
		t.Helper()
		if err := z.Add(&dnswire.A{RRHeader: dnswire.RRHeader{Name: n(owner), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
			Addr: mustAddr("192.0.2.1")}); err != nil {
			t.Fatal(err)
		}
	}
	var owners []string
	for i := 0; i < 10000; i++ {
		owners = append(owners,
			fmt.Sprintf("h%d.big.test", i),
			fmt.Sprintf("h%d.h%d.big.test", i%100, i),   // same labels, other parents
			fmt.Sprintf("x.ent%d.h%d.big.test", i, i%7), // below an empty non-terminal
		)
	}
	for _, o := range owners {
		add(o)
	}
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
