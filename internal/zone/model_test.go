package zone

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"akamaidns/internal/dnswire"
)

// zoneModel is what a Zone must behave like, written the obvious way: a map
// of RRsets in insertion order. It knows nothing of slabs, sorting or lazy
// anything, and orders names by its own label-by-label comparison.
type zoneModel struct {
	origin dnswire.Name
	sets   map[rrKey][]dnswire.RR
}

func (m *zoneModel) add(rr dnswire.RR) {
	k := keyOf(rr)
	if k.typ == dnswire.TypeSOA {
		m.sets[k] = []dnswire.RR{rr}
		return
	}
	for _, have := range m.sets[k] {
		if string(packBody(have)) == string(packBody(rr)) {
			return
		}
	}
	m.sets[k] = append(m.sets[k], rr)
}

func (m *zoneModel) setSerial(serial uint32) {
	k := rrKey{m.origin, dnswire.TypeSOA}
	if set := m.sets[k]; len(set) > 0 {
		bumped := *set[0].(*dnswire.SOA)
		bumped.Serial = serial
		m.sets[k] = []dnswire.RR{&bumped}
	}
}

// modelLess is canonical order spelled out: labels right to left, then type.
func modelLess(a, b rrKey) bool {
	la, lb := a.name.Labels(), b.name.Labels()
	slices.Reverse(la)
	slices.Reverse(lb)
	if c := slices.Compare(la, lb); c != 0 {
		return c < 0
	}
	return a.typ < b.typ
}

// records renders the model the way AllRecords must order it: SOA first,
// then owner, type, insertion.
func (m *zoneModel) records() []string {
	keys := make([]rrKey, 0, len(m.sets))
	for k := range m.sets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if si, sj := keys[i].typ == dnswire.TypeSOA, keys[j].typ == dnswire.TypeSOA; si != sj {
			return si
		}
		return modelLess(keys[i], keys[j])
	})
	var out []string
	for _, k := range keys {
		out = append(out, inOrder(m.sets[k])...)
	}
	return out
}

// names is every owner plus every name between an owner and the apex.
func (m *zoneModel) names() []dnswire.Name {
	seen := make(map[dnswire.Name]bool)
	for k := range m.sets {
		for n := k.name; ; n = n.Parent() {
			seen[n] = true
			if n == m.origin {
				break
			}
		}
	}
	out := make([]dnswire.Name, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return modelLess(rrKey{name: out[i]}, rrKey{name: out[j]}) })
	return out
}

func (m *zoneModel) cuts() []dnswire.Name {
	var out []dnswire.Name
	for _, n := range m.names() {
		if n != m.origin && len(m.sets[rrKey{n, dnswire.TypeNS}]) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// packBody is a record's identity within its RRset: its packed body, as a
// zone compares records.
func packBody(rr dnswire.RR) []byte {
	b, err := dnswire.AppendRRBody(nil, rr)
	if err != nil {
		panic(err)
	}
	return b
}

func inOrder(rrs []dnswire.RR) []string {
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String()
	}
	return out
}

// The fuzzer's vocabulary: owners chosen to collide on label prefixes and
// tails, to nest empty non-terminals three deep, and to put wildcards and
// data at, beside and below a cut.
var (
	modelOrigin = n("model.test")
	modelOwners = []string{
		"@", "a", "b.a", "c.b.a", "*.a", "*", "ab", "a-b", "b", "z",
		"x.e1.e2.e3", "y.e2.e3", "*.e3", "cut", "ns.cut", "*.cut", "d.under.cut", "ns",
	}
	modelTypes = []dnswire.Type{
		dnswire.TypeA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeSOA,
		dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypeAAAA,
	}
)

func modelName(i byte) dnswire.Name {
	if label := modelOwners[int(i)%len(modelOwners)]; label != "@" {
		return n(label + ".model.test")
	}
	return modelOrigin
}

// modelRR builds one of four variants of a record, so repeats are common.
func modelRR(owner dnswire.Name, typ dnswire.Type, variant byte) dnswire.RR {
	v := variant % 4
	h := dnswire.RRHeader{Name: owner, Type: typ, Class: dnswire.ClassINET, TTL: 60}
	target := modelName(v * 5)
	switch typ {
	case dnswire.TypeA:
		return &dnswire.A{RRHeader: h, Addr: netip.AddrFrom4([4]byte{192, 0, 2, v})}
	case dnswire.TypeAAAA:
		return &dnswire.AAAA{RRHeader: h, Addr: netip.AddrFrom16([16]byte{0x20, 1, 0xd, 0xb8, 15: v})}
	case dnswire.TypeNS:
		return &dnswire.NS{RRHeader: h, Target: []dnswire.Name{n("ns.cut.model.test"), n("ns.model.test"), n("ns.far.example"), target}[v]}
	case dnswire.TypeCNAME:
		return &dnswire.CNAME{RRHeader: h, Target: target}
	case dnswire.TypeMX:
		return &dnswire.MX{RRHeader: h, Preference: uint16(v), Exchange: target}
	case dnswire.TypeTXT:
		return &dnswire.TXT{RRHeader: h, Texts: []string{strings.Repeat("t", int(v)+1)}}
	default:
		return &dnswire.SOA{RRHeader: h, MName: n("ns.model.test"), RName: n("host.model.test"), Serial: uint32(variant), Refresh: 2, Retry: 3, Expire: 4, Minimum: 5}
	}
}

// FuzzZoneModel builds a zone from every record of an arbitrary sequence so
// far, step by step, and re-serials it with Apply, and holds every read of
// each version — AllRecords order, RRset, NameExists, Names, Cuts,
// NumRecords, Serial/SOA, the compiled view's answers and the Diff/Apply
// round trip from the version before — to the map model, while readers race
// each version's install in a store, whose view gauge must then count that
// version's bytes exactly (run with -race). The
// sequence also splits in two, a and b, and Apply(a, Diff(a, b)) must give
// b, whichever serial is the larger.
func FuzzZoneModel(f *testing.F) {
	// Each step is three bytes: op, owner, type + 7×variant. Op 0 adds the
	// record to a, op 1 to b, op 2 sets the serial.
	f.Add([]byte{0, 0, 3, 0, 0, 1, 0, 10, 0, 0, 11, 5, 0, 12, 0})                         // SOA, apex NS, then an ENT chain three deep
	f.Add([]byte{0, 9, 0, 0, 8, 0, 0, 6, 0, 0, 7, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 0, 3}) // owners in reverse canonical order
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 7, 0, 1, 0})                                     // duplicates
	f.Add([]byte{2, 0, 9, 0, 0, 3, 0, 0, 10, 2, 2, 2, 0, 9, 0, 2, 0, 9})                  // a serial without an SOA, two SOAs, a serial, a serial again
	f.Add([]byte{0, 0, 3, 0, 13, 1, 0, 14, 0, 0, 15, 0, 0, 16, 5, 0, 13, 8})              // a cut with glue, a wildcard and data below it
	f.Add([]byte{0, 4, 2, 0, 5, 0, 0, 12, 5, 0, 6, 0, 0, 7, 0, 0, 1, 0})                  // wildcards and label-prefix neighbours
	f.Add([]byte{0, 1, 3, 0, 0, 3, 2, 17, 0})                                             // an SOA off the apex is refused
	f.Add([]byte{0, 0, 38, 0, 1, 0, 1, 0, 3, 1, 1, 7, 1, 13, 1, 0, 9, 4})                 // a at serial 5, b at serial 0 with other records
	f.Add([]byte{1, 0, 31, 1, 1, 0, 0, 1, 7, 0, 2, 0})                                    // b at serial 4 with a and b sharing an owner
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		m := &zoneModel{origin: modelOrigin, sets: make(map[rrKey][]dnswire.RR)}
		// recs is every record the zone holds so far, in the order given;
		// a and b split the added ones by op.
		var recs, a, b []dnswire.RR
		z, s := New(modelOrigin), NewStore()
		for ; len(ops) >= 3; ops = ops[3:] {
			before := z
			owner, typ := modelName(ops[1]), modelTypes[int(ops[2])%len(modelTypes)]
			switch op := ops[0] % 3; op {
			case 0, 1:
				rr := modelRR(owner, typ, ops[2]/byte(len(modelTypes)))
				next, err := Build(modelOrigin, append(recs[:len(recs):len(recs)], rr))
				if refused := typ == dnswire.TypeSOA && owner != modelOrigin; refused != (err != nil) {
					t.Fatalf("Build with %s: %v", rr, err)
				} else if refused {
					continue
				}
				z, recs = next, append(recs, rr)
				m.add(rr)
				if op == 0 {
					a = append(a, rr)
				} else {
					b = append(b, rr)
				}
			case 2:
				serial := uint32(ops[1])<<8 | uint32(ops[2])
				next, err := Apply(z, Delta{FromSerial: z.Serial(), ToSerial: serial})
				if (z.SOA() == nil) != (err != nil) {
					t.Fatalf("Apply(serial %d) with SOA %v: %v", serial, z.SOA(), err)
				} else if err != nil {
					continue
				}
				m.setSerial(serial)
				z, recs = next, append(recs, next.SOA())
			}
			wait := raceReaders(z)
			s.Put(z)
			checkZoneAgainstModel(t, z, m)
			wait()
			if s.ViewBytes() != int64(z.ViewBytes()) {
				t.Fatalf("store counts %d view bytes, its one zone publishes %d", s.ViewBytes(), z.ViewBytes())
			}
			checkDiffApply(t, before, z)
		}
		// Each side needs an SOA for Apply to carry a serial; one that has
		// none gets a fixed one, b's below a's.
		za := mustBuild(t, modelOrigin, append([]dnswire.RR{modelRR(modelOrigin, dnswire.TypeSOA, 200)}, a...)...)
		zb := mustBuild(t, modelOrigin, append([]dnswire.RR{modelRR(modelOrigin, dnswire.TypeSOA, 100)}, b...)...)
		checkDiffApply(t, za, zb)
	})
}

// raceReaders starts readers that query z's view while the caller installs
// it in a store and reads it too. What a view answers is checked on the
// caller's side; here only races and panics can fail. It returns the wait
// for them.
func raceReaders(z *Zone) (wait func()) {
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, buf := z.View(), make([]byte, 0, 512)
			for i := range modelOwners {
				q := modelName(byte(i))
				v.Lookup(q, dnswire.TypeA)
				v.AppendAnswer(buf[:0], q.AppendWire(nil), 12, dnswire.TypeA)
			}
		}()
	}
	return wg.Wait
}

func checkZoneAgainstModel(t *testing.T, z *Zone, m *zoneModel) {
	t.Helper()
	want := m.records()
	if got := inOrder(z.AllRecords()); !slices.Equal(got, want) {
		t.Fatalf("AllRecords:\n got %q\nwant %q", got, want)
	}
	if z.NumRecords() != len(want) {
		t.Fatalf("NumRecords = %d, want %d", z.NumRecords(), len(want))
	}
	names := m.names()
	if got := z.names(); !slices.Equal(got, names) {
		t.Fatalf("Names = %v, want %v", got, names)
	}
	if got, want := z.Cuts(), m.cuts(); !slices.Equal(got, want) {
		t.Fatalf("Cuts = %v, want %v", got, want)
	}
	var serial uint32
	if set := m.sets[rrKey{m.origin, dnswire.TypeSOA}]; len(set) > 0 {
		serial = set[0].(*dnswire.SOA).Serial
		if soa := z.SOA(); soa == nil || soa.String() != set[0].String() {
			t.Fatalf("SOA = %v, want %v", soa, set[0])
		}
	} else if soa := z.SOA(); soa != nil {
		t.Fatalf("SOA = %v, want none", soa)
	}
	v := z.View()
	if z.Serial() != serial {
		t.Fatalf("Serial = %d, want %d", z.Serial(), serial)
	}
	ref := newOracle(z)
	for i := range modelOwners {
		owner := modelName(byte(i))
		// The owner, the names above it, one below it and a stranger beside
		// it: existence must match the model's name set.
		probes := []dnswire.Name{n("nope." + owner.String()), n("model.test.example"), n("test")}
		for a := owner; a != m.origin; a = a.Parent() {
			probes = append(probes, a)
		}
		for _, p := range probes {
			if got, want := z.NameExists(p), slices.Contains(names, p); got != want {
				t.Fatalf("NameExists(%s) = %v, want %v", p, got, want)
			}
		}
		for _, typ := range modelTypes {
			if got, want := inOrder(z.RRset(owner, typ)), inOrder(m.sets[rrKey{owner, typ}]); !slices.Equal(got, want) {
				t.Fatalf("RRset(%s, %v) = %q, want %q", owner, typ, got, want)
			}
		}
		for _, q := range probes[:1+len(probes)/2] {
			if diff := answersEqual(v.Lookup(q, dnswire.TypeA), ref.Lookup(q, dnswire.TypeA)); diff != "" {
				t.Fatalf("view parity %s: %s", q, diff)
			}
		}
	}
}

// checkDiffApply: the delta between two zones, applied to the first, must
// give the second — record for record and serial, and as an AXFR stream once
// more through FromTransfer. (Apply needs an SOA to carry the serial;
// without one on both sides there is nothing to check.)
func checkDiffApply(t *testing.T, before, after *Zone) {
	t.Helper()
	if before.SOA() == nil || after.SOA() == nil {
		return
	}
	applied, err := Apply(before, Diff(before, after))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := inOrder(after.AllRecords())
	sort.Strings(want)
	got := inOrder(applied.AllRecords())
	sort.Strings(got)
	if !slices.Equal(got, want) || applied.Serial() != after.Serial() {
		t.Fatalf("Diff/Apply round trip:\n got %q at serial %d\nwant %q at serial %d", got, applied.Serial(), want, after.Serial())
	}
	stream := after.AllRecords()
	again, err := FromTransfer(after.Origin(), append(stream, after.SOA()))
	if err != nil {
		t.Fatalf("FromTransfer: %v", err)
	}
	if got, want := inOrder(again.AllRecords()), inOrder(after.AllRecords()); !slices.Equal(got, want) {
		t.Fatalf("transfer round trip:\n got %q\nwant %q", got, want)
	}
}

// TestOneSOA: a zone holds one SOA. A master file with two apex SOA lines
// keeps the last, and everything that reports the serial agrees on it.
func TestOneSOA(t *testing.T) {
	z, err := ParseMaster(strings.NewReader("@ IN SOA ns1 host ( 1 2 3 4 5 )\n@ IN SOA ns1 host ( 2 2 3 4 5 )\nwww IN A 192.0.2.1\n"), n("soa.test"))
	if err != nil {
		t.Fatal(err)
	}
	v := z.View()
	if z.Serial() != 2 || z.SOA().Serial != 2 || z.NumRecords() != 2 {
		t.Fatalf("Serial %d, SOA %d, %d records; want serial 2 throughout and 2 records", z.Serial(), z.SOA().Serial, z.NumRecords())
	}
	if got := v.Lookup(n("nope.soa.test"), dnswire.TypeA); got.Result != NXDomain || got.SOA.Serial != 2 {
		t.Fatalf("NXDOMAIN authority: %v %v", got.Result, got.SOA)
	}
	msg, wa, ok := appendAnswerMessage(t, v, n("nope.soa.test"), dnswire.TypeA)
	if !ok || wa.Result != NXDomain || len(msg.Authority) != 1 || msg.Authority[0].(*dnswire.SOA).Serial != 2 {
		t.Fatalf("wire NXDOMAIN authority: ok=%v %+v %v", ok, wa, msg)
	}
	if got := inOrder(z.RRset(n("soa.test"), dnswire.TypeSOA)); len(got) != 1 {
		t.Fatalf("SOA set: %q", got)
	}
}

// TestRemoveSOAClearsSerial: the serial is read off the SOA, so a version
// built without it has none.
func TestRemoveSOAClearsSerial(t *testing.T) {
	z := buildZone(t)
	z = mustBuild(t, z.Origin(), z.AllRecords()[1:]...) // AllRecords puts the SOA first
	if z.SOA() != nil || z.Serial() != 0 {
		t.Fatalf("without the SOA: SOA %v, Serial %d", z.SOA(), z.Serial())
	}
	if _, err := Apply(z, Delta{ToSerial: 9}); err == nil {
		t.Fatal("Apply conjured a serial for a zone without an SOA")
	}
}
