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
		if have.String() == rr.String() {
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

func inOrder(rrs []dnswire.RR) []string {
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String()
	}
	return out
}

// copyOf builds a free zone holding copies of z's records.
func copyOf(z *Zone) *Zone {
	out := New(z.Origin())
	for _, rr := range z.AllRecords() {
		out.add(rr)
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

// FuzzZoneModel drives arbitrary Add/SetSerial sequences against a zone
// being built and the map model and holds every read — AllRecords order, RRset,
// NameExists, Names, Cuts, NumRecords, Serial/SOA, the compiled view's
// answers and the Diff/Apply round trip — to the model after every step,
// while readers compile and query views concurrently (run with -race).
func FuzzZoneModel(f *testing.F) {
	// Each step is three bytes: op, owner, type + 7×variant.
	f.Add([]byte{0, 0, 3, 0, 0, 1, 0, 10, 0, 0, 11, 5, 0, 12, 0})                         // SOA, apex NS, then an ENT chain three deep
	f.Add([]byte{0, 9, 0, 0, 8, 0, 0, 6, 0, 0, 7, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 0, 3}) // owners in reverse canonical order
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 7, 0, 1, 0})                                     // duplicates
	f.Add([]byte{2, 0, 9, 0, 0, 3, 0, 0, 10, 2, 2, 2, 0, 9, 0, 2, 0, 9})                  // SetSerial without an SOA, two SOAs, SetSerial, SetSerial again
	f.Add([]byte{0, 0, 3, 0, 13, 1, 0, 14, 0, 0, 15, 0, 0, 16, 5, 0, 13, 8})              // a cut with glue, a wildcard and data below it
	f.Add([]byte{0, 4, 2, 0, 5, 0, 0, 12, 5, 0, 6, 0, 0, 7, 0, 0, 1, 0})                  // wildcards and label-prefix neighbours
	f.Add([]byte{0, 1, 3, 0, 0, 3, 2, 17, 0})                                             // an SOA off the apex is refused
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		z := New(modelOrigin)
		m := &zoneModel{origin: modelOrigin, sets: make(map[rrKey][]dnswire.RR)}

		// Readers: compile and query views while the zone is mutated. What
		// a view answers is checked on the writer's side, against a view of
		// a known state; here only races and panics can fail.
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 0, 512)
				for i := byte(0); ; i++ {
					select {
					case <-done:
						return
					default:
					}
					v, q := z.View(), modelName(i)
					v.Lookup(q, dnswire.TypeA)
					v.AppendAnswer(buf[:0], q.AppendWire(nil), 12, dnswire.TypeA)
				}
			}()
		}
		defer wg.Wait()
		defer close(done)

		for ; len(ops) >= 3; ops = ops[3:] {
			before := copyOf(z)
			owner, typ := modelName(ops[1]), modelTypes[int(ops[2])%len(modelTypes)]
			switch ops[0] % 3 {
			case 0, 1: // Add, twice as likely as SetSerial
				rr := modelRR(owner, typ, ops[2]/byte(len(modelTypes)))
				err := z.Add(rr)
				if refused := typ == dnswire.TypeSOA && owner != modelOrigin; refused != (err != nil) {
					t.Fatalf("Add(%s) = %v", rr, err)
				} else if !refused {
					m.add(rr)
				}
			case 2:
				z.SetSerial(uint32(ops[1])<<8 | uint32(ops[2]))
				m.setSerial(uint32(ops[1])<<8 | uint32(ops[2]))
			}
			checkZoneAgainstModel(t, z, m)
			checkDiffApply(t, before, z)
		}
	})
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
	if got := z.Names(); !slices.Equal(got, names) {
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
	if z.Serial() != serial || v.Serial() != serial {
		t.Fatalf("Serial = %d, view %d, want %d", z.Serial(), v.Serial(), serial)
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

// checkDiffApply: the delta between the zone before and after a step, applied
// to the zone before, must give the zone after — record for record, and as
// an AXFR stream once more through FromTransfer. (Apply needs an SOA to
// carry the serial; without one on both sides there is nothing to check.)
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
	if !slices.Equal(got, want) {
		t.Fatalf("Diff/Apply round trip:\n got %q\nwant %q", got, want)
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
	if z.Serial() != 2 || z.SOA().Serial != 2 || v.Serial() != 2 || z.NumRecords() != 2 {
		t.Fatalf("Serial %d, SOA %d, view %d, %d records; want serial 2 throughout and 2 records", z.Serial(), z.SOA().Serial, v.Serial(), z.NumRecords())
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
	z := New(n("example.com"))
	for _, rr := range buildZone(t).AllRecords() {
		if rr.Header().Type != dnswire.TypeSOA {
			mustAdd(t, z, rr)
		}
	}
	if z.SOA() != nil || z.Serial() != 0 || z.View().Serial() != 0 {
		t.Fatalf("without the SOA: SOA %v, Serial %d, view %d", z.SOA(), z.Serial(), z.View().Serial())
	}
	z.SetSerial(9) // a no-op without an SOA
	if z.Serial() != 0 {
		t.Fatalf("SetSerial conjured serial %d", z.Serial())
	}
}
