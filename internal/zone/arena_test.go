package zone

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"

	"akamaidns/internal/dnswire"
)

// masterRecords parses a master file into records with the reference
// parser (master_ref_test.go), in file order: the records ParseMaster's
// zone holds.
func masterRecords(tb testing.TB, text string, origin dnswire.Name) []dnswire.RR {
	tb.Helper()
	var recs []dnswire.RR
	if err := refReadMaster(strings.NewReader(text), origin, func(rr dnswire.RR) error {
		recs = append(recs, rr)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// refusable reports whether a zone at origin must refuse rr: out of zone, an
// OPT, an SOA off the apex, or a record whose wire form will not pack or
// would not read back.
func refusable(origin dnswire.Name, rr dnswire.RR) bool {
	h := rr.Header()
	if !h.Name.IsSubdomainOf(origin) || h.Type == dnswire.TypeOPT || h.Type == dnswire.TypeSOA && h.Name != origin {
		return true
	}
	_, err := dnswire.AppendRRBody(nil, rr)
	return err != nil
}

// arenaRR builds one record of an arbitrary set: every type a zone stores,
// raw records of types the codec does and does not interpret (a DNAME and
// a private type among them, whose in-zone target names the view keeps
// whole), and the
// records a zone must refuse — a TXT string over 255 octets, a header TYPE
// that is not the RDATA's, raw RDATA that does not parse as its type, and
// an owner out of zone.
func arenaRR(owner dnswire.Name, kind, variant byte) dnswire.RR {
	v := variant % 4
	h := dnswire.RRHeader{Name: owner, Class: dnswire.ClassINET, TTL: 60 + uint32(variant/4%2)}
	target := modelName(v * 5)
	set := func(t dnswire.Type) dnswire.RRHeader { h.Type = t; return h }
	switch kind % 18 {
	case 0:
		return &dnswire.A{RRHeader: set(dnswire.TypeA), Addr: netip.AddrFrom4([4]byte{192, 0, 2, v})}
	case 1:
		return &dnswire.AAAA{RRHeader: set(dnswire.TypeAAAA), Addr: netip.AddrFrom16([16]byte{0x20, 1, 0xd, 0xb8, 15: v})}
	case 2:
		return &dnswire.NS{RRHeader: set(dnswire.TypeNS), Target: []dnswire.Name{n("ns.cut.model.test"), n("ns.model.test"), n("ns.far.example"), target}[v]}
	case 3:
		return &dnswire.CNAME{RRHeader: set(dnswire.TypeCNAME), Target: target}
	case 4:
		return &dnswire.SOA{RRHeader: set(dnswire.TypeSOA), MName: n("ns.model.test"), RName: target, Serial: uint32(variant), Refresh: 2, Retry: 3, Expire: 4, Minimum: 5}
	case 5:
		return &dnswire.MX{RRHeader: set(dnswire.TypeMX), Preference: uint16(v), Exchange: target}
	case 6:
		return &dnswire.TXT{RRHeader: set(dnswire.TypeTXT), Texts: [][]string{nil, {""}, {"a", "b"}, {strings.Repeat("t", int(variant))}}[v]}
	case 7:
		return &dnswire.SRV{RRHeader: set(dnswire.TypeSRV), Priority: uint16(v), Weight: 5, Port: 53, Target: target}
	case 8:
		return &dnswire.CAA{RRHeader: set(dnswire.TypeCAA), Flags: v, Tag: "issue", Value: strings.Repeat("v", int(v))}
	case 9:
		return &dnswire.PTR{RRHeader: set(dnswire.TypePTR), Target: target}
	case 10:
		return &dnswire.RawRecord{RRHeader: set(dnswire.Type(99)), Data: []byte{v, variant}[:v%3]}
	case 11:
		// 4 octets read back as an A record; any other length does not.
		return &dnswire.RawRecord{RRHeader: set(dnswire.TypeA), Data: []byte{192, 0, 2, 9, 9}[:3+v%3]}
	case 12:
		return &dnswire.TXT{RRHeader: set(dnswire.TypeTXT), Texts: []string{strings.Repeat("x", 256)}}
	case 13:
		return &dnswire.A{RRHeader: set(dnswire.TypeAAAA), Addr: netip.AddrFrom4([4]byte{192, 0, 2, v})}
	case 14:
		return &dnswire.CAA{RRHeader: set(dnswire.TypeCAA), Tag: ""}
	case 16:
		// DNAME, which the codec does not interpret: its target name is
		// opaque RDATA, stored and sent whole.
		return &dnswire.RawRecord{RRHeader: set(dnswire.Type(39)), Data: target.AppendWire(nil)}
	case 17:
		return &dnswire.RawRecord{RRHeader: set(dnswire.Type(65280)), Data: target.AppendWire(nil)}
	default:
		return &dnswire.A{RRHeader: dnswire.RRHeader{Name: n("out.of.zone"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60}, Addr: netip.AddrFrom4([4]byte{192, 0, 2, v})}
	}
}

// FuzzZoneArena holds a zone built from an arbitrary record set to a
// reference computed here from the input records, not from the zone's own
// decode: Build refuses exactly when a record is refusable; otherwise
// AllRecords, RRset, NameExists, Cuts, SOA, NumRecords and View.Lookup agree
// with the reference, and FromTransfer of the zone's own AXFR stream gives a
// zone with byte-identical arena, nodes, sets and origin.
func FuzzZoneArena(f *testing.F) {
	// Each record is three bytes: owner, kind, variant.
	f.Add([]byte{0, 4, 0, 0, 2, 1, 13, 2, 0, 14, 0, 1, 13, 2, 3, 15, 0, 2}) // SOA, apex NS, a cut with glue
	f.Add([]byte{1, 6, 0, 1, 6, 1, 1, 6, 2, 1, 6, 3, 1, 6, 0})              // TXT nil, "", two strings, repeats
	f.Add([]byte{2, 10, 1, 2, 10, 2, 2, 11, 1, 3, 8, 1, 3, 7, 2, 3, 9, 0})  // raw records, CAA, SRV, PTR
	f.Add([]byte{0, 4, 1, 0, 4, 2, 4, 3, 1, 5, 0, 4, 5, 0, 12})             // two SOAs, a wildcard CNAME, TTLs
	f.Add([]byte{1, 12, 0})                                                 // TXT over 255 octets
	f.Add([]byte{1, 13, 0})                                                 // A RDATA under an AAAA header
	f.Add([]byte{1, 11, 0})                                                 // raw A RDATA of 3 octets
	f.Add([]byte{1, 14, 0})                                                 // CAA without a tag
	f.Add([]byte{1, 15, 0})                                                 // out of zone
	// Names the view stores relative to the origin, and those it must not.
	f.Add([]byte{0, 4, 0, 1, 3, 0, 1, 5, 0})                    // CNAME, MX and an SOA RNAME that are the origin
	f.Add([]byte{1, 7, 1, 1, 16, 1, 1, 17, 1, 8, 0, 0})         // in-zone SRV, DNAME and private-type targets
	f.Add([]byte{17, 2, 1, 17, 0, 0, 17, 1, 1, 13, 2, 1})       // a cut that is its own NS target, and another cut naming it
	f.Add([]byte{1, 3, 2, 2, 3, 1, 2, 9, 3, 14, 3, 2, 0, 4, 2}) // in-zone CNAME and PTR targets
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		var recs, kept []dnswire.RR
		for ; len(ops) >= 3; ops = ops[3:] {
			rr := arenaRR(modelName(ops[0]), ops[1], ops[2])
			recs = append(recs, rr)
			if !refusable(modelOrigin, rr) {
				kept = append(kept, rr)
			}
		}
		if _, err := Build(modelOrigin, recs); (err != nil) != (len(kept) < len(recs)) {
			t.Fatalf("Build of %d records, %d refusable: %v", len(recs), len(recs)-len(kept), err)
		}
		z, err := Build(modelOrigin, kept)
		if err != nil {
			t.Fatalf("Build refused acceptable records: %v", err)
		}
		checkArena(t, z, kept)
		if soa := z.SOA(); soa != nil {
			again, err := FromTransfer(modelOrigin, append(z.AllRecords(), soa))
			if err != nil {
				t.Fatalf("FromTransfer: %v", err)
			}
			a, b := z.View(), again.View()
			if string(a.arena) != string(b.arena) || a.originWire != b.originWire || a.origin != b.origin || !slices.Equal(a.nodes, b.nodes) ||
				!slices.Equal(a.sets, b.sets) || a.serial != b.serial || a.soa != b.soa {
				t.Fatal("FromTransfer of the zone's own stream compiled other bytes")
			}
		}
	})
}

// checkArena holds every structured read of z to the reference of recs.
func checkArena(t *testing.T, z *Zone, recs []dnswire.RR) {
	t.Helper()
	ref := oracleOf(modelOrigin, recs)
	// The reference's record list: SOA first, then canonical order, each
	// set in insertion order.
	keys := make([]rrKey, 0, len(ref.sets))
	for k := range ref.sets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if si, sj := keys[i].typ == dnswire.TypeSOA, keys[j].typ == dnswire.TypeSOA; si != sj {
			return si
		}
		return modelLess(keys[i], keys[j])
	})
	var want []string
	for _, k := range keys {
		want = append(want, inOrder(ref.sets[k])...)
	}
	if got := inOrder(z.AllRecords()); !slices.Equal(got, want) {
		t.Fatalf("AllRecords:\n got %q\nwant %q", got, want)
	}
	if z.NumRecords() != len(want) {
		t.Fatalf("NumRecords = %d, want %d", z.NumRecords(), len(want))
	}
	var names, cuts []dnswire.Name
	for name := range ref.names {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return modelLess(rrKey{name: names[i]}, rrKey{name: names[j]}) })
	for _, name := range names {
		if name != modelOrigin && len(ref.sets[rrKey{name, dnswire.TypeNS}]) > 0 {
			cuts = append(cuts, name)
		}
	}
	if got := z.Cuts(); !slices.Equal(got, cuts) {
		t.Fatalf("Cuts = %v, want %v", got, cuts)
	}
	wantSOA := ""
	if set := ref.sets[rrKey{modelOrigin, dnswire.TypeSOA}]; len(set) > 0 {
		wantSOA = set[0].String()
	}
	if soa := z.SOA(); soa == nil && wantSOA != "" || soa != nil && soa.String() != wantSOA {
		t.Fatalf("SOA = %v, want %q", soa, wantSOA)
	}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeSOA,
		dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypeSRV, dnswire.TypeCAA, dnswire.TypePTR, dnswire.Type(99), 0}
	v := z.View()
	for i := range modelOwners {
		owner := modelName(byte(i))
		for _, p := range []dnswire.Name{owner, n("nope." + owner.String())} {
			if got, want := z.NameExists(p), ref.names[p]; got != want {
				t.Fatalf("NameExists(%s) = %v, want %v", p, got, want)
			}
		}
		for _, typ := range types {
			if got, want := inOrder(z.RRset(owner, typ)), inOrder(ref.sets[rrKey{owner, typ}]); !slices.Equal(got, want) {
				t.Fatalf("RRset(%s, %v) = %q, want %q", owner, typ, got, want)
			}
			if diff := answersEqual(v.Lookup(owner, typ), ref.Lookup(owner, typ)); diff != "" {
				t.Fatalf("Lookup(%s, %v): %s", owner, typ, diff)
			}
		}
	}
}

// TestRefuseWhatWillNotPack: a record whose wire form will not pack, or
// would not read back as written, is refused at construction — by Build,
// ParseMaster and FromTransfer alike — with an error naming it.
func TestRefuseWhatWillNotPack(t *testing.T) {
	origin := n("pack.test")
	soa := &dnswire.SOA{RRHeader: hdr("pack.test", dnswire.TypeSOA), MName: n("ns.pack.test"), RName: n("host.pack.test"), Serial: 1}
	for _, bad := range []dnswire.RR{
		&dnswire.TXT{RRHeader: hdr("bad.pack.test", dnswire.TypeTXT), Texts: []string{strings.Repeat("x", 256)}},
		&dnswire.A{RRHeader: hdr("bad.pack.test", dnswire.TypeA), Addr: netip.MustParseAddr("2001:db8::1")},
		&dnswire.AAAA{RRHeader: hdr("bad.pack.test", dnswire.TypeAAAA), Addr: netip.MustParseAddr("::ffff:192.0.2.1")},
		&dnswire.A{RRHeader: hdr("bad.pack.test", dnswire.TypeAAAA), Addr: netip.MustParseAddr("192.0.2.1")},
		&dnswire.CAA{RRHeader: hdr("bad.pack.test", dnswire.TypeCAA), Tag: ""},
		&dnswire.CNAME{RRHeader: hdr("bad.pack.test", dnswire.TypeCNAME)},
		&dnswire.RawRecord{RRHeader: hdr("bad.pack.test", dnswire.TypeA), Data: []byte{192, 0, 2}},
		&dnswire.RawRecord{RRHeader: hdr("bad.pack.test", dnswire.TypeNS), Data: []byte{3, 'N', 'S', '1', 0}},
	} {
		if _, err := Build(origin, []dnswire.RR{soa, bad}); err == nil || !strings.Contains(err.Error(), "bad.pack.test") {
			t.Errorf("Build took %s: %v", bad, err)
		}
		if _, err := FromTransfer(origin, []dnswire.RR{soa, bad, soa}); err == nil || !strings.Contains(err.Error(), "bad.pack.test") {
			t.Errorf("FromTransfer took %s: %v", bad, err)
		}
	}
	for _, text := range []string{
		"bad IN TXT " + strings.Repeat("x", 256) + "\n",
		"bad IN CAA 0 \"\" \"ca.example\"\n",
	} {
		if _, err := ParseMaster(strings.NewReader(text), origin); err == nil || !strings.Contains(err.Error(), "bad.pack.test") {
			t.Errorf("ParseMaster took %q: %v", text, err)
		}
	}
}
