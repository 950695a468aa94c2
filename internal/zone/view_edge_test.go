package zone

import (
	"strings"
	"testing"

	"akamaidns/internal/dnswire"
)

// Edge-case probes the parity tables only brush past: wildcard-CNAME
// chains, ANY at and below the apex, chains that hit maxCNAMEChain, glue
// selection for out-of-zone NS targets, and empty non-terminals. Each case
// checks the compiled view against the legacy locked lookup AND asserts the
// absolute semantics, so a bug shared by both paths still fails.

// TestViewWildcardCNAMEChain: a query under *.cwild synthesizes a CNAME at
// the query name, then the chase continues through the target's A records.
func TestViewWildcardCNAMEChain(t *testing.T) {
	z := buildZone(t)
	v := z.View()
	qname := n("host.cwild.example.com")
	got := v.Lookup(qname, dnswire.TypeA)
	if diff := answersEqual(got, oracleLookup(z, qname, dnswire.TypeA)); diff != "" {
		t.Fatalf("parity: %s", diff)
	}
	if got.Result != Success || len(got.Answer) != 3 {
		t.Fatalf("result=%v answers=%v", got.Result, rrStrings(got.Answer))
	}
	cn, ok := got.Answer[0].(*dnswire.CNAME)
	if !ok || cn.Header().Name != qname {
		t.Fatalf("synthesized CNAME owner = %v", got.Answer[0])
	}
	if cn.Target != n("www.example.com") {
		t.Fatalf("CNAME target = %v", cn.Target)
	}
	for _, rr := range got.Answer[1:] {
		if _, ok := rr.(*dnswire.A); !ok {
			t.Fatalf("chased record %v not an A", rr)
		}
	}
	// Wire path: same three records, synthesized owner spelled as queried.
	msg, wa, ok := appendAnswerMessage(t, v, qname, dnswire.TypeA)
	if !ok || wa.Result != Success {
		t.Fatalf("wire ok=%v result=%v", ok, wa.Result)
	}
	if !eqStrings(rrStrings(msg.Answers), rrStrings(got.Answer)) {
		t.Fatalf("wire answers %v vs %v", rrStrings(msg.Answers), rrStrings(got.Answer))
	}
}

// TestViewTypeANY: ANY at the apex returns every apex RRset, ANY at an
// ordinary node returns all its sets, ANY below a cut is still a referral,
// and the wire path always declines ANY (it is an abuse vector the decode
// path rate-limits and shapes).
func TestViewTypeANY(t *testing.T) {
	z := buildZone(t)
	v := z.View()
	apex := v.Lookup(n("example.com"), dnswire.TypeANY)
	if diff := answersEqual(apex, oracleLookup(z, n("example.com"), dnswire.TypeANY)); diff != "" {
		t.Fatalf("apex parity: %s", diff)
	}
	if apex.Result != Success || len(apex.Answer) != 3 { // SOA + 2×NS
		t.Fatalf("apex ANY = %v %v", apex.Result, rrStrings(apex.Answer))
	}
	below := v.Lookup(n("ns2.example.com"), dnswire.TypeANY)
	if below.Result != Success || len(below.Answer) != 2 { // A + AAAA
		t.Fatalf("node ANY = %v %v", below.Result, rrStrings(below.Answer))
	}
	ref := v.Lookup(n("host.sub.example.com"), dnswire.TypeANY)
	if diff := answersEqual(ref, oracleLookup(z, n("host.sub.example.com"), dnswire.TypeANY)); diff != "" {
		t.Fatalf("below-cut parity: %s", diff)
	}
	if ref.Result != Delegation {
		t.Fatalf("ANY below cut = %v", ref.Result)
	}
	for _, q := range []string{"example.com", "ns2.example.com", "host.sub.example.com"} {
		if _, _, ok := appendAnswerMessage(t, v, n(q), dnswire.TypeANY); ok {
			t.Fatalf("wire path served ANY for %s", q)
		}
	}
}

// chainZone is a CNAME cycle: every chase runs until maxCNAMEChain stops it.
const chainZone = `
$ORIGIN loop.test.
$TTL 300
@   IN SOA ns1 host ( 1 3600 600 604800 30 )
@   IN NS ns1
ns1 IN A 198.51.100.1
c0  IN CNAME c1
c1  IN CNAME c2
c2  IN CNAME c0
`

// TestViewCNAMEChainLimit: a chain that cycles must stop after
// maxCNAMEChain hops (one record per hop plus the initial CNAME),
// identically on the legacy, structured-view, and wire paths, and without
// looping forever.
func TestViewCNAMEChainLimit(t *testing.T) {
	z, err := ParseMaster(strings.NewReader(chainZone), n("loop.test"))
	if err != nil {
		t.Fatal(err)
	}
	v := z.View()
	qname := n("c0.loop.test")
	want := oracleLookup(z, qname, dnswire.TypeA)
	got := v.Lookup(qname, dnswire.TypeA)
	if diff := answersEqual(got, want); diff != "" {
		t.Fatalf("parity: %s", diff)
	}
	if got.Result != Success || len(got.Answer) != maxCNAMEChain+1 {
		t.Fatalf("chain stopped at %d records (want %d), result=%v",
			len(got.Answer), maxCNAMEChain+1, got.Result)
	}
	msg, wa, ok := appendAnswerMessage(t, v, qname, dnswire.TypeA)
	if !ok || wa.Result != Success {
		t.Fatalf("wire ok=%v result=%v", ok, wa.Result)
	}
	if len(msg.Answers) != maxCNAMEChain+1 {
		t.Fatalf("wire chain = %d records", len(msg.Answers))
	}
}

// siblingZone delegates twice: one cut's NS targets live under the cut
// (glue required), the other's live in a sibling hosted zone (no glue from
// this zone — the sibling answers for them authoritatively).
const siblingZone = `
$ORIGIN parent.test.
$TTL 300
@        IN SOA ns1 host ( 1 3600 600 604800 30 )
@        IN NS ns1
ns1      IN A 198.51.100.1
in       IN NS ns1.in
in       IN NS ns2.in
ns1.in   IN A 203.0.113.1
ns2.in   IN AAAA 2001:db8::53
out      IN NS ns1.sibling.test.
out      IN NS ns2.sibling.test.
`

// TestViewDelegationGlueScope: glue is attached only for NS targets inside
// the delegating zone; targets in a sibling zone produce a glueless
// referral on both paths.
func TestViewDelegationGlueScope(t *testing.T) {
	z, err := ParseMaster(strings.NewReader(siblingZone), n("parent.test"))
	if err != nil {
		t.Fatal(err)
	}
	v := z.View()
	for _, tc := range []struct {
		qname string
		glue  int
	}{
		{"host.in.parent.test", 2},  // A + AAAA for in-zone targets
		{"host.out.parent.test", 0}, // sibling-zone targets: no glue
	} {
		qname := n(tc.qname)
		want := oracleLookup(z, qname, dnswire.TypeA)
		got := v.Lookup(qname, dnswire.TypeA)
		if diff := answersEqual(got, want); diff != "" {
			t.Fatalf("%s parity: %s", tc.qname, diff)
		}
		if got.Result != Delegation || len(got.NS) != 2 || len(got.Glue) != tc.glue {
			t.Fatalf("%s: result=%v ns=%d glue=%d (want glue %d)",
				tc.qname, got.Result, len(got.NS), len(got.Glue), tc.glue)
		}
		msg, wa, ok := appendAnswerMessage(t, v, qname, dnswire.TypeA)
		if !ok || wa.Result != Delegation {
			t.Fatalf("%s wire ok=%v result=%v", tc.qname, ok, wa.Result)
		}
		if len(msg.Authority) != 2 || len(msg.Additional) != tc.glue {
			t.Fatalf("%s wire sections auth=%d add=%d", tc.qname, len(msg.Authority), len(msg.Additional))
		}
	}
}

// TestViewEmptyNonTerminal: names that exist only as interior points on the
// way to deep.a.b must answer NoData (NOERROR + SOA), never NXDOMAIN, and
// names beside them must still be NXDOMAIN.
func TestViewEmptyNonTerminal(t *testing.T) {
	z := buildZone(t)
	v := z.View()
	for _, ent := range []string{"a.b.example.com", "b.example.com"} {
		got := v.Lookup(n(ent), dnswire.TypeA)
		if diff := answersEqual(got, oracleLookup(z, n(ent), dnswire.TypeA)); diff != "" {
			t.Fatalf("%s parity: %s", ent, diff)
		}
		if got.Result != NoData || got.SOA == nil || len(got.Answer) != 0 {
			t.Fatalf("%s = %v (want NoData+SOA)", ent, got.Result)
		}
		msg, wa, ok := appendAnswerMessage(t, v, n(ent), dnswire.TypeA)
		if !ok || wa.Result != NoData {
			t.Fatalf("%s wire ok=%v result=%v", ent, ok, wa.Result)
		}
		if msg.RCode != dnswire.RCodeNoError || len(msg.Authority) != 1 {
			t.Fatalf("%s wire rcode=%v auth=%d", ent, msg.RCode, len(msg.Authority))
		}
	}
	// A sibling of the ENT chain that truly does not exist stays NXDOMAIN.
	miss := v.Lookup(n("x.b.example.com"), dnswire.TypeA)
	if miss.Result != NXDomain {
		t.Fatalf("x.b = %v (want NXDomain)", miss.Result)
	}
}
