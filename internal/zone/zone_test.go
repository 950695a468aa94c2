package zone

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"akamaidns/internal/dnswire"
)

func n(s string) dnswire.Name { return dnswire.MustName(s) }

const exampleZone = `
$ORIGIN example.com.
$TTL 300
@       IN SOA ns1 hostmaster ( 2020010101 3600 600 604800 30 )
@       IN NS  ns1
@       IN NS  ns2
ns1     IN A   198.51.100.1
ns2     IN A   198.51.100.2
ns2     IN AAAA 2001:db8::2
www     20 IN A 192.0.2.10
www     20 IN A 192.0.2.11
alias   IN CNAME www
chain   IN CNAME alias
ext     IN CNAME www.other.net.
*.wild  IN A   203.0.113.7
*.cwild IN CNAME www
txt     IN TXT "hello world" "second"
mx      IN MX  10 mail
mail    IN A   192.0.2.25
srv     IN SRV 5 10 5060 sip
sip     IN A   192.0.2.60
caa     IN CAA 0 issue "ca.example.net"
deep.a.b IN A  192.0.2.99
sub     IN NS  ns1.sub
ns1.sub IN A   192.0.2.53
`

func buildZone(t *testing.T) *Zone {
	t.Helper()
	z, err := ParseMaster(strings.NewReader(exampleZone), n("example.com"))
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestParseMasterCounts(t *testing.T) {
	z := buildZone(t)
	if z.Serial() != 2020010101 {
		t.Fatalf("serial = %d", z.Serial())
	}
	if z.NumRecords() != 22 {
		t.Fatalf("NumRecords = %d, want 22", z.NumRecords())
	}
}

func TestLookupExact(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("www.example.com"), dnswire.TypeA)
	if a.Result != Success || len(a.Answer) != 2 {
		t.Fatalf("www A: %v answers=%d", a.Result, len(a.Answer))
	}
	if a.Answer[0].Header().TTL != 20 {
		t.Fatalf("TTL = %d, want 20", a.Answer[0].Header().TTL)
	}
}

func TestLookupNoData(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("www.example.com"), dnswire.TypeAAAA)
	if a.Result != NoData {
		t.Fatalf("Result = %v, want NoData", a.Result)
	}
	if a.SOA == nil || a.SOA.Minimum != 30 {
		t.Fatalf("negative SOA missing/wrong: %v", a.SOA)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("nope.example.com"), dnswire.TypeA)
	if a.Result != NXDomain || a.SOA == nil {
		t.Fatalf("Result = %v soa=%v", a.Result, a.SOA)
	}
}

func TestLookupEmptyNonTerminal(t *testing.T) {
	z := buildZone(t)
	// "a.b.example.com" exists only as an ancestor of deep.a.b -> NODATA.
	a := lookupBoth(t, z, n("a.b.example.com"), dnswire.TypeA)
	if a.Result != NoData {
		t.Fatalf("empty non-terminal: %v, want NoData", a.Result)
	}
	// And b.example.com likewise.
	if got := lookupBoth(t, z, n("b.example.com"), dnswire.TypeA); got.Result != NoData {
		t.Fatalf("b.example.com: %v, want NoData", got.Result)
	}
}

func TestLookupCNAMEChain(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("chain.example.com"), dnswire.TypeA)
	if a.Result != Success {
		t.Fatalf("Result = %v", a.Result)
	}
	// chain -> alias -> www -> two A records: 2 CNAMEs + 2 As.
	if len(a.Answer) != 4 {
		t.Fatalf("chain answers = %d, want 4", len(a.Answer))
	}
	if _, ok := a.Answer[0].(*dnswire.CNAME); !ok {
		t.Fatal("first answer not CNAME")
	}
	if _, ok := a.Answer[3].(*dnswire.A); !ok {
		t.Fatal("last answer not A")
	}
}

func TestLookupCNAMEQtypeCNAME(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("alias.example.com"), dnswire.TypeCNAME)
	if a.Result != Success || len(a.Answer) != 1 {
		t.Fatalf("CNAME qtype: %v/%d", a.Result, len(a.Answer))
	}
}

func TestLookupExternalCNAME(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("ext.example.com"), dnswire.TypeA)
	if a.Result != Success || len(a.Answer) != 1 {
		t.Fatalf("external CNAME: %v/%d", a.Result, len(a.Answer))
	}
	cn := a.Answer[0].(*dnswire.CNAME)
	if cn.Target != n("www.other.net") {
		t.Fatalf("target = %v", cn.Target)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("anything.wild.example.com"), dnswire.TypeA)
	if a.Result != Success || len(a.Answer) != 1 {
		t.Fatalf("wildcard: %v/%d", a.Result, len(a.Answer))
	}
	// Owner rewritten to the query name.
	if a.Answer[0].Header().Name != n("anything.wild.example.com") {
		t.Fatalf("wildcard owner = %v", a.Answer[0].Header().Name)
	}
	addr := a.Answer[0].(*dnswire.A).Addr
	if addr != netip.MustParseAddr("203.0.113.7") {
		t.Fatalf("wildcard addr = %v", addr)
	}
}

func TestLookupWildcardDoesNotCoverExisting(t *testing.T) {
	z := buildZone(t)
	// "wild.example.com" itself exists (empty non-terminal) -> NODATA, not
	// wildcard synthesis.
	a := lookupBoth(t, z, n("wild.example.com"), dnswire.TypeA)
	if a.Result != NoData {
		t.Fatalf("wild apex: %v, want NoData", a.Result)
	}
}

func TestLookupWildcardCNAME(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("x.cwild.example.com"), dnswire.TypeA)
	if a.Result != Success {
		t.Fatalf("wildcard cname: %v", a.Result)
	}
	if len(a.Answer) != 3 { // synthesized CNAME + 2 A
		t.Fatalf("answers = %d, want 3", len(a.Answer))
	}
	if a.Answer[0].Header().Name != n("x.cwild.example.com") {
		t.Fatalf("synth owner = %v", a.Answer[0].Header().Name)
	}
}

func TestLookupDelegation(t *testing.T) {
	z := buildZone(t)
	for _, q := range []string{"sub.example.com", "host.sub.example.com", "a.b.sub.example.com"} {
		a := lookupBoth(t, z, n(q), dnswire.TypeA)
		if a.Result != Delegation {
			t.Fatalf("%s: %v, want Delegation", q, a.Result)
		}
		if len(a.NS) != 1 || len(a.Glue) != 1 {
			t.Fatalf("%s: NS=%d glue=%d", q, len(a.NS), len(a.Glue))
		}
	}
}

func TestLookupApexNSNotDelegation(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("example.com"), dnswire.TypeNS)
	if a.Result != Success || len(a.Answer) != 2 {
		t.Fatalf("apex NS: %v/%d", a.Result, len(a.Answer))
	}
}

func TestLookupANY(t *testing.T) {
	z := buildZone(t)
	a := lookupBoth(t, z, n("ns2.example.com"), dnswire.TypeANY)
	if a.Result != Success || len(a.Answer) != 2 {
		t.Fatalf("ANY: %v/%d", a.Result, len(a.Answer))
	}
}

func TestLookupOutOfZone(t *testing.T) {
	z := buildZone(t)
	if got := lookupBoth(t, z, n("www.other.net"), dnswire.TypeA); got.Result != NXDomain {
		t.Fatalf("out of zone: %v", got.Result)
	}
}

func TestCNAMELoopBounded(t *testing.T) {
	z := mustBuild(t, n("loop.test"), soaAt("loop.test"),
		&dnswire.CNAME{RRHeader: hdr("a.loop.test", dnswire.TypeCNAME), Target: n("b.loop.test")},
		&dnswire.CNAME{RRHeader: hdr("b.loop.test", dnswire.TypeCNAME), Target: n("a.loop.test")})
	a := lookupBoth(t, z, n("a.loop.test"), dnswire.TypeA)
	if a.Result != Success {
		t.Fatalf("loop result: %v", a.Result)
	}
	if len(a.Answer) > 2*maxCNAMEChain+2 {
		t.Fatalf("loop unbounded: %d answers", len(a.Answer))
	}
}

func hdr(name string, typ dnswire.Type) dnswire.RRHeader {
	return dnswire.RRHeader{Name: n(name), Type: typ, Class: dnswire.ClassINET, TTL: 60}
}

func mustBuild(t *testing.T, origin dnswire.Name, rrs ...dnswire.RR) *Zone {
	t.Helper()
	z, err := Build(origin, rrs)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// soaAt is an SOA record at origin, serial 1.
func soaAt(origin string) *dnswire.SOA {
	return &dnswire.SOA{RRHeader: hdr(origin, dnswire.TypeSOA), MName: n("ns." + origin), RName: n("h." + origin), Serial: 1, Minimum: 30}
}

func TestAddRejectsOutOfZone(t *testing.T) {
	_, err := Build(n("example.com"), []dnswire.RR{&dnswire.A{RRHeader: hdr("www.other.net", dnswire.TypeA), Addr: netip.MustParseAddr("1.2.3.4")}})
	if err == nil {
		t.Fatal("out-of-zone record accepted")
	}
}

func TestAddRejectsNonApexSOA(t *testing.T) {
	_, err := Build(n("example.com"), []dnswire.RR{&dnswire.SOA{RRHeader: hdr("sub.example.com", dnswire.TypeSOA), MName: n("a.example.com"), RName: n("b.example.com")}})
	if err == nil {
		t.Fatal("non-apex SOA accepted")
	}
}

// TestAddDeduplicates: Build keeps a record once however often it is given,
// and keeps copies — the caller's records stay its own.
func TestAddDeduplicates(t *testing.T) {
	rr := &dnswire.A{RRHeader: hdr("www.example.com", dnswire.TypeA), Addr: netip.MustParseAddr("1.2.3.4")}
	z := mustBuild(t, n("example.com"), rr, rr)
	if z.NumRecords() != 1 {
		t.Fatalf("NumRecords = %d after a duplicate record", z.NumRecords())
	}
	rr.TTL = 9999
	if got := z.RRset(n("www.example.com"), dnswire.TypeA)[0].Header().TTL; got != 60 {
		t.Fatalf("Build aliased the caller's record: TTL %d", got)
	}
}

// without builds the next version of z, at the same serial, lacking the
// RRset (name, typ): how a record set leaves a zone.
func without(t *testing.T, z *Zone, name dnswire.Name, typ dnswire.Type) *Zone {
	t.Helper()
	next, err := Apply(z, Delta{FromSerial: z.Serial(), ToSerial: z.Serial(), Deleted: z.RRset(name, typ)})
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestRemoveRebuildsNames(t *testing.T) {
	z := mustBuild(t, n("example.com"), soaAt("example.com"),
		&dnswire.A{RRHeader: hdr("deep.a.example.com", dnswire.TypeA), Addr: netip.MustParseAddr("1.2.3.4")})
	if !z.NameExists(n("a.example.com")) {
		t.Fatal("empty non-terminal missing")
	}
	next := without(t, z, n("deep.a.example.com"), dnswire.TypeA)
	if next.NameExists(n("a.example.com")) || next.NameExists(n("deep.a.example.com")) {
		t.Fatal("empty non-terminal survived the record's removal")
	}
	if !z.NameExists(n("deep.a.example.com")) {
		t.Fatal("building the next version changed the one it was built from")
	}
}

// TestZoneVersion: every zone is numbered when it is made, however it is
// made, and keeps its number through Put and Record; no two zones share one.
// A nil zone, no zone at all, is version 0.
func TestZoneVersion(t *testing.T) {
	z := buildZone(t)
	next, err := Apply(z, Delta{FromSerial: z.Serial(), ToSerial: z.Serial() + 1})
	if err != nil {
		t.Fatal(err)
	}
	again, err := FromTransfer(z.Origin(), append(z.AllRecords(), z.SOA()))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, m := range []*Zone{z, next, again, New(n("a.example.com")), mustBuild(t, n("b.example.com")),
		MustParseMaster("www IN A 192.0.2.1", n("c.example.com"))} {
		if v := m.Version(); v == 0 || seen[v] {
			t.Fatalf("zone %s has version %d (seen before: %v)", m.Origin(), v, seen[v])
		}
		seen[m.Version()] = true
	}
	v := z.Version()
	NewHistory(2).Record(z)
	NewStore().Put(z)
	if z.Version() != v {
		t.Fatalf("version %d became %d after Record and Put", v, z.Version())
	}
	if (*Zone)(nil).Version() != 0 {
		t.Fatalf("nil zone: version %d", (*Zone)(nil).Version())
	}
}

func TestReadsReturnCopies(t *testing.T) {
	z := buildZone(t)
	z.RRset(n("www.example.com"), dnswire.TypeA)[0].Header().TTL = 9999
	z.AllRecords()[0].Header().TTL = 9999
	z.SOA().TTL = 9999
	for _, rr := range z.AllRecords() {
		if rr.Header().TTL == 9999 {
			t.Fatalf("a read aliases zone storage: %s", rr)
		}
	}
}

func TestParseMasterErrors(t *testing.T) {
	bad := []string{
		"www IN A not-an-ip",
		"www IN AAAA 1.2.3.4",
		"www IN BOGUS data",
		"$ORIGIN",
		"$TTL abc",
		"$INCLUDE other.zone",
		"www IN MX ten mail",
		"www IN A 1.2.3.4 extra",
		"( IN A 1.2.3.4",
		`www IN TXT "unterminated`,
	}
	for _, text := range bad {
		if _, err := ParseMaster(strings.NewReader(text), n("example.com")); err == nil {
			t.Errorf("ParseMaster(%q) succeeded, want error", text)
		}
	}
}

// TestParseMasterLineCap pins the physical-line bound: a line that fills
// the scanner's cap to the byte (newline included) still parses — the
// buffer grows from its small start to the cap — and one byte more is a
// reported error, not a panic or a silently clipped record.
func TestParseMasterLineCap(t *testing.T) {
	record := "www IN A 192.0.2.1 ;"
	line := func(total int) string {
		return "first IN A 192.0.2.9\n" + record + strings.Repeat("x", total-len(record)-1) + "\nlast IN A 192.0.2.2\n"
	}
	z, err := ParseMaster(strings.NewReader(line(maxMasterLine)), n("example.com"))
	if err != nil {
		t.Fatalf("line of exactly maxMasterLine bytes: %v", err)
	}
	for _, host := range []string{"first", "www", "last"} {
		if a := lookupBoth(t, z, n(host+".example.com"), dnswire.TypeA); a.Result != Success {
			t.Errorf("%s.example.com lost around the long line: %v", host, a.Result)
		}
	}
	if _, err := ParseMaster(strings.NewReader(line(maxMasterLine+1)), n("example.com")); err == nil {
		t.Fatal("line one byte over maxMasterLine parsed, want an error")
	}
}

// TestParseMasterOriginSwitch: a relative name means what the $ORIGIN in
// force says, so a token seen under one origin is resolved afresh under the
// next, as an owner and as a target.
func TestParseMasterOriginSwitch(t *testing.T) {
	text := "www IN A 192.0.2.1\nalias IN CNAME www\n$ORIGIN sub.example.com.\nwww IN A 192.0.2.2\nalias IN CNAME www\n"
	z, err := ParseMaster(strings.NewReader(text), n("example.com"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ owner, want string }{
		{"www.example.com", "192.0.2.1"},
		{"www.sub.example.com", "192.0.2.2"},
	} {
		if rrs := z.RRset(n(c.owner), dnswire.TypeA); len(rrs) != 1 || rrs[0].(*dnswire.A).Addr.String() != c.want {
			t.Errorf("%s A = %v, want %s", c.owner, rrs, c.want)
		}
	}
	for _, c := range []struct{ owner, want string }{
		{"alias.example.com", "www.example.com"},
		{"alias.sub.example.com", "www.sub.example.com"},
	} {
		if rrs := z.RRset(n(c.owner), dnswire.TypeCNAME); len(rrs) != 1 || rrs[0].(*dnswire.CNAME).Target != n(c.want) {
			t.Errorf("%s CNAME = %v, want %s", c.owner, rrs, c.want)
		}
	}
}

func TestParseMasterContinuationOwner(t *testing.T) {
	text := "www IN A 192.0.2.1\n    IN A 192.0.2.2\n"
	z, err := ParseMaster(strings.NewReader(text), n("example.com"))
	if err != nil {
		t.Fatal(err)
	}
	a := lookupBoth(t, z, n("www.example.com"), dnswire.TypeA)
	if len(a.Answer) != 2 {
		t.Fatalf("continuation owner: %d answers", len(a.Answer))
	}
}

func TestParseMasterTTLUnits(t *testing.T) {
	text := "$TTL 1h\nwww IN A 192.0.2.1\nttl2 4000 IN A 192.0.2.2\nttl3 2m IN A 192.0.2.3\n"
	z, err := ParseMaster(strings.NewReader(text), n("example.com"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]uint32{"www": 3600, "ttl2": 4000, "ttl3": 120}
	for host, want := range cases {
		a := lookupBoth(t, z, n(host+".example.com"), dnswire.TypeA)
		if got := a.Answer[0].Header().TTL; got != want {
			t.Errorf("%s TTL = %d, want %d", host, got, want)
		}
	}
}

func TestParseMasterComments(t *testing.T) {
	text := "; full line comment\nwww IN A 192.0.2.1 ; trailing\ntxt IN TXT \"has ; semicolon\"\n"
	z, err := ParseMaster(strings.NewReader(text), n("example.com"))
	if err != nil {
		t.Fatal(err)
	}
	txt := lookupBoth(t, z, n("txt.example.com"), dnswire.TypeTXT)
	if txt.Result != Success || txt.Answer[0].(*dnswire.TXT).Texts[0] != "has ; semicolon" {
		t.Fatalf("quoted semicolon mishandled: %v", txt.Answer)
	}
}

func TestStoreFindLongestMatch(t *testing.T) {
	s := NewStore()
	parent := New(n("example.com"))
	child := New(n("sub.example.com"))
	s.Put(parent)
	s.Put(child)
	if got := s.Find(n("www.sub.example.com")); got != child {
		t.Fatal("Find did not choose longest match")
	}
	if got := s.Find(n("www.example.com")); got != parent {
		t.Fatal("Find missed parent zone")
	}
	if got := s.Find(n("www.other.net")); got != nil {
		t.Fatal("Find matched unrelated name")
	}
	if s.Len() != 2 || len(s.Origins()) != 2 {
		t.Fatal("Len/Origins wrong")
	}
	if !s.Delete(n("sub.example.com")) || s.Delete(n("sub.example.com")) {
		t.Fatal("Delete semantics wrong")
	}
}

func TestTransferRoundTrip(t *testing.T) {
	s := NewStore()
	z := buildZone(t)
	s.Put(z)
	stream := s.Transfer(n("example.com"))
	if stream == nil {
		t.Fatal("Transfer returned nil")
	}
	if _, ok := stream[0].(*dnswire.SOA); !ok {
		t.Fatal("transfer does not start with SOA")
	}
	if _, ok := stream[len(stream)-1].(*dnswire.SOA); !ok {
		t.Fatal("transfer does not end with SOA")
	}
	z2, err := FromTransfer(n("example.com"), stream)
	if err != nil {
		t.Fatal(err)
	}
	if z2.NumRecords() != z.NumRecords() {
		t.Fatalf("transferred %d records, want %d", z2.NumRecords(), z.NumRecords())
	}
	if z2.Serial() != z.Serial() {
		t.Fatalf("serial %d, want %d", z2.Serial(), z.Serial())
	}
	// And the transferred zone answers identically.
	a := lookupBoth(t, z2, n("anything.wild.example.com"), dnswire.TypeA)
	if a.Result != Success {
		t.Fatalf("transferred zone wildcard: %v", a.Result)
	}
}

func TestApplyTransferRejectsBadFraming(t *testing.T) {
	s := NewStore()
	z := buildZone(t)
	s.Put(z)
	stream := s.Transfer(n("example.com"))
	if _, err := FromTransfer(n("example.com"), stream[:len(stream)-1]); err == nil {
		t.Fatal("missing trailing SOA accepted")
	}
	if _, err := FromTransfer(n("example.com"), stream[1:]); err == nil {
		t.Fatal("missing leading SOA accepted")
	}
	if _, err := FromTransfer(n("example.com"), nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTransferMissingZone(t *testing.T) {
	s := NewStore()
	if s.Transfer(n("nope.example")) != nil {
		t.Fatal("Transfer of missing zone returned records")
	}
}

func TestZoneNamesSorted(t *testing.T) {
	z := buildZone(t)
	names := z.names()
	for i := 1; i < len(names); i++ {
		if names[i-1].Compare(names[i]) >= 0 {
			t.Fatalf("Names not sorted: %v >= %v", names[i-1], names[i])
		}
	}
	// Origin must be present.
	found := false
	for _, nm := range names {
		if nm == n("example.com") {
			found = true
		}
	}
	if !found {
		t.Fatal("origin missing from Names")
	}
}

func TestRRsetAccessor(t *testing.T) {
	z := buildZone(t)
	rrs := z.RRset(n("www.example.com"), dnswire.TypeA)
	if len(rrs) != 2 {
		t.Fatalf("RRset = %d records", len(rrs))
	}
	// Copies, not aliases.
	rrs[0].Header().TTL = 1
	if z.RRset(n("www.example.com"), dnswire.TypeA)[0].Header().TTL != 20 {
		t.Fatal("RRset aliases storage")
	}
	if z.RRset(n("missing.example.com"), dnswire.TypeA) != nil {
		t.Fatal("missing RRset non-nil")
	}
}

func TestCutsAccessor(t *testing.T) {
	z := buildZone(t)
	cuts := z.Cuts()
	if len(cuts) != 1 || cuts[0] != n("sub.example.com") {
		t.Fatalf("Cuts = %v", cuts)
	}
}

func TestResultStrings(t *testing.T) {
	for r, want := range map[Result]string{
		Success: "Success", Delegation: "Delegation",
		NXDomain: "NXDomain", NoData: "NoData", Result(9): "Result(9)",
	} {
		if r.String() != want {
			t.Fatalf("Result(%d).String() = %q", int(r), r.String())
		}
	}
}

func TestMustParseMasterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseMaster did not panic on bad input")
		}
	}()
	MustParseMaster("www IN A not-an-ip", n("example.com"))
}

func TestMustParseMasterOK(t *testing.T) {
	z := MustParseMaster("www IN A 192.0.2.1", n("example.com"))
	if z.NumRecords() != 1 {
		t.Fatal("MustParseMaster record count")
	}
}

func TestRemoveKeepsSiblingNames(t *testing.T) {
	z := mustBuild(t, n("example.com"), soaAt("example.com"),
		&dnswire.A{RRHeader: hdr("x.a.example.com", dnswire.TypeA), Addr: netip.MustParseAddr("1.2.3.4")},
		&dnswire.A{RRHeader: hdr("y.a.example.com", dnswire.TypeA), Addr: netip.MustParseAddr("1.2.3.5")})
	z = without(t, z, n("x.a.example.com"), dnswire.TypeA)
	if !z.NameExists(n("a.example.com")) {
		t.Fatal("shared ancestor lost after removing one child")
	}
	if !z.NameExists(n("y.a.example.com")) {
		t.Fatal("sibling lost")
	}
	if z.NameExists(n("x.a.example.com")) {
		t.Fatal("removed name still exists")
	}
}

func TestWildcardAtApexLevel(t *testing.T) {
	// "*.example.com" covering direct children of the apex.
	z := mustBuild(t, n("example.com"), soaAt("example.com"),
		&dnswire.A{RRHeader: hdr("*.example.com", dnswire.TypeA), Addr: netip.MustParseAddr("9.9.9.9")})
	a := lookupBoth(t, z, n("anything.example.com"), dnswire.TypeA)
	if a.Result != Success || len(a.Answer) != 1 {
		t.Fatalf("apex wildcard: %v/%d", a.Result, len(a.Answer))
	}
	// But multi-label names under a nonexistent encloser are NOT covered
	// when the closest encloser is the apex and the wildcard matched...
	b := lookupBoth(t, z, n("deep.anything.example.com"), dnswire.TypeA)
	if b.Result != Success {
		t.Fatalf("deep under apex wildcard: %v (closest encloser is apex)", b.Result)
	}
}

func TestParseMasterTXTMultiString(t *testing.T) {
	z := MustParseMaster(`txt IN TXT "one" two "three words here"`, n("example.com"))
	a := lookupBoth(t, z, n("txt.example.com"), dnswire.TypeTXT)
	txt := a.Answer[0].(*dnswire.TXT)
	if len(txt.Texts) != 3 || txt.Texts[2] != "three words here" {
		t.Fatalf("TXT = %q", txt.Texts)
	}
}

func TestParseMasterSRVAndCAAErrors(t *testing.T) {
	bad := []string{
		"s IN SRV 1 2 notaport target",
		"s IN SRV 99999999 2 3 target",
		"c IN CAA 999 issue \"x\"",
		"c IN CAA notanum issue \"x\"",
		"m IN MX 70000 mail",
		"s IN SOA ns host 1 2 3 4",   // missing field
		"s IN SOA ns host a b c d e", // non-numeric
		"x IN NS bad name",           // extra field
	}
	for _, text := range bad {
		if _, err := ParseMaster(strings.NewReader(text), n("example.com")); err == nil {
			t.Errorf("ParseMaster(%q) accepted", text)
		}
	}
}

// Property: lookups never panic and classify consistently — every name the
// zone reports as existing is never NXDomain; random unknown names are
// never Success unless a wildcard covers them.
func TestPropertyLookupClassification(t *testing.T) {
	z := buildZone(t)
	names := z.names()
	f := func(pick uint16, label uint8) bool {
		// An existing name.
		ex := names[int(pick)%len(names)]
		if got := lookupBoth(t, z, ex, dnswire.TypeTXT); got.Result == NXDomain {
			// Names under a delegation are referrals, never NXDomain —
			// also fine; only NXDomain itself is a violation.
			return false
		}
		// A random unknown name directly under the apex.
		unknown, err := n("example.com").Prepend(fmt.Sprintf("zz%d", label))
		if err != nil {
			return false
		}
		got := lookupBoth(t, z, unknown, dnswire.TypeA)
		return got.Result == NXDomain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllRecords always round-trips through an applied transfer to a
// zone answering identically on every stored name.
func TestPropertyTransferPreservesAnswers(t *testing.T) {
	src := buildZone(t)
	store := NewStore()
	store.Put(src)
	stream := store.Transfer(n("example.com"))
	copyZ, err := FromTransfer(n("example.com"), stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range src.names() {
		for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeTXT, dnswire.TypeCNAME} {
			a := lookupBoth(t, src, name, typ)
			b := lookupBoth(t, copyZ, name, typ)
			if a.Result != b.Result || len(a.Answer) != len(b.Answer) {
				t.Fatalf("%s %s: %v/%d vs %v/%d", name, typ, a.Result, len(a.Answer), b.Result, len(b.Answer))
			}
		}
	}
}

// TestCompareWireMatchesNameCompare holds the build's wire-name order to
// dnswire.Name.Compare, which canonical order is defined by.
func TestCompareWireMatchesNameCompare(t *testing.T) {
	names := []string{".", "com", "a.com", "b.com", "ab.com", "a.b.com", "*.com", "-.com", "_x.com",
		"z.a.com", "a.z", "aa.com", "a.ab.com", "b.a.com", "a.com.net", "x.y.z.a.com"}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for _, a := range names {
		for _, b := range names {
			na, nb := n(a), n(b)
			if got, want := sign(compareWire(na.AppendWire(nil), nb.AppendWire(nil))), na.Compare(nb); got != want {
				t.Errorf("compareWire(%s, %s) = %d, Name.Compare %d", na, nb, got, want)
			}
		}
	}
}

// largeSet returns the records of one RRset of distinct A records at
// big.example.com, in an order unrelated to their addresses, with every
// fifth followed by a copy of an earlier one; and the addresses a zone
// keeps, in the order it keeps them: each once, as first given.
func largeSet(distinct int) (recs []dnswire.RR, want []netip.Addr) {
	for i := 0; i < distinct; i++ {
		p := i * 7919 % distinct // 7919 is prime and does not divide distinct
		a := netip.AddrFrom4([4]byte{10, byte(p >> 16), byte(p >> 8), byte(p)})
		recs = append(recs, &dnswire.A{RRHeader: hdr("big.example.com", dnswire.TypeA), Addr: a})
		want = append(want, a)
		if i%5 == 4 {
			recs = append(recs, &dnswire.A{RRHeader: hdr("big.example.com", dnswire.TypeA), Addr: want[i/2]})
		}
	}
	return recs, want
}

// TestCanonicalLargeRRset: a build keeps each record of a 20 000-record
// RRset once, in the order first given, however many copies follow.
func TestCanonicalLargeRRset(t *testing.T) {
	recs, want := largeSet(20000)
	recs = append(recs, soaAt("example.com"), recs[0], recs[len(recs)/2])
	z := mustBuild(t, n("example.com"), recs...)
	got := z.RRset(n("big.example.com"), dnswire.TypeA)
	if len(got) != len(want) {
		t.Fatalf("kept %d records, want %d", len(got), len(want))
	}
	for i, rr := range got {
		if a := rr.(*dnswire.A).Addr; a != want[i] {
			t.Fatalf("record %d is %v, want %v", i, a, want[i])
		}
	}
}
