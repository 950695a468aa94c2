package zone

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"akamaidns/internal/dnswire"
)

// FuzzParseMaster holds the parser's crash-freedom and the invariant that
// anything parsed serves lookups without panicking.
func FuzzParseMaster(f *testing.F) {
	f.Add(exampleZone)
	f.Add("$TTL 60\nwww IN A 192.0.2.1\n")
	f.Add("@ IN SOA ns1 host ( 1 2 3 4 5 )\n")
	f.Add("a IN TXT \"x\" ; comment\n(\n)\n")
	f.Add("$ORIGIN other.test.\nb 1w IN CNAME c\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseMaster(strings.NewReader(text), dnswire.MustName("fuzz.test"))
		if err != nil {
			return
		}
		// Whatever parsed must answer lookups for a spread of names.
		for _, q := range []string{"fuzz.test", "www.fuzz.test", "a.b.c.fuzz.test"} {
			for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeANY, dnswire.TypeTXT} {
				oracleLookup(z, dnswire.MustName(q), typ)
			}
		}
		// And snapshot/transfer machinery must hold.
		_ = z.AllRecords()
		_ = z.names()
		_ = z.Cuts()
	})
}

// rootFuzzZone is hosted at the root: an apex wildcard, an empty
// non-terminal, a wildcard CNAME whose chain runs back through the apex
// wildcard, and a delegation.
const rootFuzzZone = "$TTL 60\n@ IN SOA ns1 host ( 1 2 3 4 5 )\n@ IN NS ns1\nns1 IN A 192.0.2.1\n" +
	"* IN A 192.0.2.2\ndeep.ent IN TXT \"t\"\n*.cw IN CNAME hop.cw2\n*.cw2 IN CNAME end.nowhere\n" +
	"sub IN NS ns1.sub\nns1.sub IN A 192.0.2.3\n"

// FuzzViewLookupParity holds the central differential invariant of the
// compiled read path, three ways: for any zone the parser accepts at any
// origin and any (qname, qtype), the reference oracle (oracle_test.go) built
// from the parsed records, the lock-free View.Lookup and the decoded bytes of
// the zero-alloc View.AppendAnswer must agree — record for record, section
// for section.
func FuzzViewLookupParity(f *testing.F) {
	f.Add("example.com", exampleZone, "www.example.com", uint16(dnswire.TypeA))
	f.Add("example.com", exampleZone, "a.wild.example.com", uint16(dnswire.TypeA))
	f.Add("example.com", exampleZone, "chain.example.com", uint16(dnswire.TypeAAAA))
	f.Add("example.com", exampleZone, "www.sub.example.com", uint16(dnswire.TypeMX))
	f.Add("example.com", exampleZone, "no.such.example.com", uint16(dnswire.TypeTXT))
	f.Add("example.com", exampleZone, "ext.example.com", uint16(dnswire.TypeA)) // out-of-zone CNAME target
	f.Add("fuzz.test", "$ORIGIN fuzz.test.\n@ IN SOA ns1 host ( 1 2 3 4 5 )\n*.a IN CNAME b.a\nb.a IN CNAME c\n", "x.a.fuzz.test", uint16(dnswire.TypeA))
	f.Add(".", rootFuzzZone, "foo.bar", uint16(dnswire.TypeA))  // apex wildcard
	f.Add(".", rootFuzzZone, "ent", uint16(dnswire.TypeA))      // empty non-terminal
	f.Add(".", rootFuzzZone, "x.ent", uint16(dnswire.TypeTXT))  // below it: no wildcard applies
	f.Add(".", rootFuzzZone, "x.cw", uint16(dnswire.TypeA))     // wildcard CNAME chain
	f.Add(".", rootFuzzZone, "h.sub", uint16(dnswire.TypeAAAA)) // referral
	f.Add(".", rootFuzzZone, ".", uint16(dnswire.TypeNS))       // the apex itself
	f.Add(".", "", "anything", uint16(dnswire.TypeA))           // empty zone
	f.Fuzz(func(t *testing.T, originText, text, qname string, qt uint16) {
		origin, err := dnswire.ParseName(originText)
		if err != nil {
			return
		}
		z, err := ParseMaster(strings.NewReader(text), origin)
		if err != nil {
			return
		}
		name, err := dnswire.ParseName(qname)
		if err != nil {
			return
		}
		typ := dnswire.Type(qt)
		want := oracleOf(origin, masterRecords(t, text, origin)).Lookup(name, typ)
		v := z.View()
		got := v.Lookup(name, typ)
		if diff := answersEqual(got, want); diff != "" {
			t.Fatalf("view parity %s %v: %s", name, typ, diff)
		}
		if diff := canExistChecker(z, v)(name); diff != "" {
			t.Fatal(diff)
		}
		if typ == dnswire.TypeANY || !name.IsSubdomainOf(v.Origin()) {
			return
		}
		msg, wa, ok := appendAnswerMessage(t, v, name, typ)
		if !ok {
			t.Fatalf("wire path declined %s %v", name, typ)
		}
		if wa.Result != want.Result {
			t.Fatalf("wire parity %s %v: result %v, want %v", name, typ, wa.Result, want.Result)
		}
		wantAns, wantAuth, wantAdd := wireExpect(want)
		if got, want := rrStrings(msg.Answers), rrStrings(wantAns); !eqStrings(got, want) {
			t.Fatalf("wire parity %s %v: answers %v, want %v", name, typ, got, want)
		}
		if got, want := rrStrings(msg.Authority), rrStrings(wantAuth); !eqStrings(got, want) {
			t.Fatalf("wire parity %s %v: authority %v, want %v", name, typ, got, want)
		}
		if got, want := rrStrings(msg.Additional), rrStrings(wantAdd); !eqStrings(got, want) {
			t.Fatalf("wire parity %s %v: additional %v, want %v", name, typ, got, want)
		}
	})
}

// FuzzParseMasterParity holds ParseMaster, which packs master-file text
// straight into wire bytes, to the text → dnswire.RR → Build path it
// replaced (master_ref_test.go): for any text at any origin, either both
// refuse it, or both make the same zone — byte for byte in every field of
// the view, and record for record in AllRecords.
func FuzzParseMasterParity(f *testing.F) {
	_, bench := benchZoneText(7)
	for _, c := range []struct{ origin, text string }{
		{"example.com", exampleZone},
		{".", rootFuzzZone},
		{"z00007corp.org", bench},
		{"fuzz.test", "@ IN SOA ns1 host (\n 1 ; serial\n 2 3 4 5 )\n@ IN NS ns1\n"},
		{"fuzz.test", "a IN TXT \"x; not a comment\" \"(y)\" ; a comment\n"},
		{"fuzz.test", "$ORIGIN sub.fuzz.test.\nwww IN A 192.0.2.1\n$ORIGIN fuzz.test.\nwww IN CNAME www.sub\n 60 IN MX 10 @\n"},
		{"Fuzz.TEST", "WWW.Fuzz.Test. 1H in a 192.0.2.1\nSRV 1w IN SRV 1 2 53 Target.FUZZ.test.\n"},
		{"fuzz.test", "www.other.test. IN A 192.0.2.1\n"},
		{"fuzz.test", "a IN TXT \"" + strings.Repeat("x", 256) + "\"\n"},
		{"fuzz.test", "a IN AAAA fe80::1%eth0\nc IN AAAA 2001:db8::192.0.2.1\nd IN AAAA ::\n"},
		{"fuzz.test", "b IN AAAA ::ffff:c000:201\n"},
		{"fuzz.test", "\u212aey IN A 192.0.2.1\n\u0130 IN N\u017f ns\n$or\u0131g\u0131n other.\n"},
		{"fuzz.test", "a IN A \"192.0.2.1\"\n"},
		{"fuzz.test", "\"@\" IN CAA 0 \"issue\" \"ca\"\n\x00b IN TXT \x00c\n"},
		{".", "\"\" IN A 192.0.2.1\n"},
	} {
		f.Add(c.origin, c.text)
	}
	f.Fuzz(func(t *testing.T, originText, text string) {
		origin, err := dnswire.ParseName(originText)
		if err != nil {
			return
		}
		got, gotErr := ParseMaster(strings.NewReader(text), origin)
		var recs []dnswire.RR
		var want *Zone
		wantErr := refReadMaster(strings.NewReader(text), origin, func(rr dnswire.RR) error {
			recs = append(recs, rr)
			return nil
		})
		if wantErr == nil {
			want, wantErr = Build(origin, recs)
		}
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ParseMaster: %v; reference: %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		a, b := got.View(), want.View()
		if string(a.arena) != string(b.arena) || !slices.Equal(a.nodes, b.nodes) ||
			!slices.Equal(a.sets, b.sets) || a.serial != b.serial || a.soa != b.soa ||
			a.origin != b.origin || a.originWire != b.originWire || a.originLabels != b.originLabels ||
			a.tableMask != b.tableMask || a.idxMask != b.idxMask || a.size != b.size {
			t.Fatalf("ParseMaster compiled other bytes than the reference:\n got %+v\nwant %+v", *a, *b)
		}
		if got, want := rrStrings(got.AllRecords()), rrStrings(want.AllRecords()); !slices.Equal(got, want) {
			t.Fatalf("AllRecords:\n got %q\nwant %q", got, want)
		}
	})
}

// TestAddrParsersMatchNetip holds the master-file address parsers to
// netip.ParseAddr on the shapes an address field takes, well-formed or not.
func TestAddrParsersMatchNetip(t *testing.T) {
	for _, s := range []string{
		"", ".", "1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1", "01.2.3.4", "1.2.3", "1.2.3.4.5",
		"1..2.3", ".1.2.3", "1.2.3.", "1.2.3.4:5", "1.2.3.4%e", "1.2.3.a", "\"1.2.3.4", "\x001.2.3.4",
		"::", "::1", "1::", "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9",
		"1:2:3:4:5:6:7", "12345::", "1:::2", ":1::", "1::2::3", "1:", ":", ":::", "1:2:3:4:5:6::7:8",
		"abcd:EF01::", "g::", "2001:db8::1", "0:0:0:0:0:ffff:c000:201", "::ffff:c000:201", "::ffff:1.2.3.4",
		"::1.2.3.4", "2001:db8::1.2.3.4", "1:2:3:4:5:6:1.2.3.4", "fe80::1%eth0", "fe80::1%", "%eth0", "1.2.3.4::",
		"0001:0002::", "00001::", "::ffff", "ffff::", "1::ffff:c000:201",
	} {
		a, err := netip.ParseAddr(s)
		want4, want6 := err == nil && a.Is4(), err == nil && a.Is6() && !a.Is4In6()
		ip4, ok4 := parseIPv4([]byte(s))
		ip6, ok6 := parseIPv6([]byte(s))
		if ok4 != want4 || ok4 && ip4 != a.As4() {
			t.Errorf("parseIPv4(%q) = %v %v, netip: %v %v", s, ip4, ok4, a, err)
		}
		if ok6 != want6 || ok6 && ip6 != a.As16() {
			t.Errorf("parseIPv6(%q) = %v %v, netip: %v %v", s, ip6, ok6, a, err)
		}
	}
}
