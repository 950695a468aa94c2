package zone

import (
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
