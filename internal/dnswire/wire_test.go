package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	q := NewQuery(0x1234, MustName("www.example.com"), TypeA)
	r := NewResponse(q)
	r.Authoritative = true
	r.Answers = []RR{
		&A{RRHeader{MustName("www.example.com"), TypeA, ClassINET, 20}, netip.MustParseAddr("192.0.2.1")},
		&A{RRHeader{MustName("www.example.com"), TypeA, ClassINET, 20}, netip.MustParseAddr("192.0.2.2")},
	}
	r.Authority = []RR{
		&NS{RRHeader{MustName("example.com"), TypeNS, ClassINET, 4000}, MustName("ns1.example.com")},
		&NS{RRHeader{MustName("example.com"), TypeNS, ClassINET, 4000}, MustName("ns2.example.com")},
	}
	r.Additional = []RR{
		&A{RRHeader{MustName("ns1.example.com"), TypeA, ClassINET, 4000}, netip.MustParseAddr("198.51.100.1")},
		&AAAA{RRHeader{MustName("ns2.example.com"), TypeAAAA, ClassINET, 4000}, netip.MustParseAddr("2001:db8::53")},
	}
	return r
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nin:  %v\nout: %v", m, got)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Rough uncompressed size: each of the 7 owner/target names would cost
	// ~17 bytes uncompressed. The compressed form must be well under that.
	uncompressed := 12
	for _, q := range m.Questions {
		uncompressed += q.Name.wireLen() + 4
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			uncompressed += rr.Header().Name.wireLen() + 10 + 20
		}
	}
	if len(wire) >= uncompressed {
		t.Fatalf("wire %d bytes, uncompressed estimate %d: compression ineffective", len(wire), uncompressed)
	}
}

func TestCompressionPointersDecodable(t *testing.T) {
	// A pathological stack of names sharing suffixes.
	m := NewQuery(7, MustName("a.b.c.d.example.com"), TypeTXT)
	r := NewResponse(m)
	names := []string{"b.c.d.example.com", "c.d.example.com", "d.example.com", "example.com", "com"}
	for _, n := range names {
		r.Answers = append(r.Answers, &CNAME{
			RRHeader{MustName(n), TypeCNAME, ClassINET, 60}, MustName("x." + n),
		})
	}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatal("compressed suffix-chain message did not round trip")
	}
}

func TestAllRRTypesRoundTrip(t *testing.T) {
	h := func(tp Type) RRHeader { return RRHeader{MustName("rr.example.com"), tp, ClassINET, 300} }
	rrs := []RR{
		&A{h(TypeA), netip.MustParseAddr("203.0.113.9")},
		&AAAA{h(TypeAAAA), netip.MustParseAddr("2001:db8::9")},
		&NS{h(TypeNS), MustName("ns.example.net")},
		&CNAME{h(TypeCNAME), MustName("target.example.net")},
		&PTR{h(TypePTR), MustName("host.example.net")},
		&SOA{h(TypeSOA), MustName("ns1.example.com"), MustName("hostmaster.example.com"), 2020120101, 3600, 600, 604800, 30},
		&MX{h(TypeMX), 10, MustName("mail.example.com")},
		&TXT{h(TypeTXT), []string{"v=spf1 -all", "second string"}},
		&SRV{h(TypeSRV), 5, 10, 5060, MustName("sip.example.com")},
		&CAA{h(TypeCAA), 0, "issue", "letsencrypt.org"},
		&RawRecord{RRHeader{MustName("rr.example.com"), Type(99), ClassINET, 60}, []byte{1, 2, 3}},
	}
	m := NewResponse(NewQuery(9, MustName("rr.example.com"), TypeANY))
	m.Answers = rrs
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("RR round trip mismatch:\nin:  %v\nout: %v", m, got)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	m := &Message{Header: Header{
		ID: 0xBEEF, Response: true, OpCode: OpNotify, Authoritative: true,
		Truncated: true, RecursionDesired: true, RecursionAvailable: true,
		AuthenticData: true, CheckingDisabled: true, RCode: RCodeRefused,
	}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != m.Header {
		t.Fatalf("header mismatch: %+v vs %+v", got.Header, m.Header)
	}
}

func TestECSRoundTrip(t *testing.T) {
	opt := NewOPT(4096)
	opt.TTL |= 1 << 15 // DNSSEC OK
	want := ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("198.51.100.0")}
	if err := opt.SetClientSubnet(want); err != nil {
		t.Fatal(err)
	}
	q := NewQuery(1, MustName("ecs.example.com"), TypeA)
	q.Additional = append(q.Additional, opt)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := got.ClientSubnet()
	if !ok {
		t.Fatal("ECS missing after round trip")
	}
	if e.Family != 1 || e.SourcePrefix != 24 || e.Addr != netip.MustParseAddr("198.51.100.0") {
		t.Fatalf("ECS = %+v", e)
	}
	o := got.OPT()
	if o == nil || o.UDPSize() != 4096 || !o.Do() {
		t.Fatalf("OPT = %v", o)
	}
}

func TestECSV6RoundTrip(t *testing.T) {
	opt := NewOPT(1232)
	want := ECS{Family: 2, SourcePrefix: 56, Addr: netip.MustParseAddr("2001:db8:1234::")}
	if err := opt.SetClientSubnet(want); err != nil {
		t.Fatal(err)
	}
	e, ok := opt.ClientSubnet()
	if !ok || e.Family != 2 || e.SourcePrefix != 56 {
		t.Fatalf("ECS v6 = %+v ok=%v", e, ok)
	}
	// Prefix truncation: a /56 should keep only 7 address bytes.
	data, _ := appendECS(nil, want)
	if len(data) != 4+7 {
		t.Fatalf("ECS v6 /56 payload = %d bytes, want 11", len(data))
	}
}

func TestECSInvalid(t *testing.T) {
	if _, err := appendECS(nil, ECS{Family: 3}); err == nil {
		t.Fatal("family 3 accepted")
	}
	if _, err := appendECS(nil, ECS{Family: 1, SourcePrefix: 33, Addr: netip.MustParseAddr("1.2.3.4")}); err == nil {
		t.Fatal("IPv4 /33 accepted")
	}
	if _, err := unpackECS([]byte{0, 1}); err == nil {
		t.Fatal("truncated ECS accepted")
	}
	if _, err := unpackECS([]byte{0, 1, 24, 0, 1}); err == nil {
		t.Fatal("short-address ECS accepted")
	}
}

func TestUnpackRejectsTruncation(t *testing.T) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Unpack(wire[:cut]); err == nil {
			t.Fatalf("Unpack accepted message truncated to %d bytes", cut)
		}
	}
}

func TestUnpackRejectsTrailingGarbage(t *testing.T) {
	wire, _ := NewQuery(1, MustName("a.com"), TypeA).Pack()
	if _, err := Unpack(append(wire, 0xFF)); err != ErrTrailingGarbage {
		t.Fatalf("err = %v, want ErrTrailingGarbage", err)
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	// Header with QDCOUNT=1, then a name that is a pointer to itself.
	wire := make([]byte, 12)
	wire[5] = 1 // QDCOUNT
	// Pointer at offset 12 pointing to offset 12.
	wire = append(wire, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Unpack(wire); err == nil {
		t.Fatal("self-pointer accepted")
	}
	// Forward pointer (points past itself).
	wire2 := make([]byte, 12)
	wire2[5] = 1
	wire2 = append(wire2, 0xC0, 20, 0, 1, 0, 1, 0, 0, 0, 0)
	if _, err := Unpack(wire2); err == nil {
		t.Fatal("forward pointer accepted")
	}
}

func TestUnpackFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base, _ := sampleMessage().Pack()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), base...)
		// Random mutations.
		for k := 0; k < 1+rng.Intn(8); k++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		Unpack(b) // must not panic
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		Unpack(b)
	}
}

func TestPropertyQueryRoundTrip(t *testing.T) {
	f := func(id uint16, l1, l2 uint8) bool {
		name := MustName(string(rune('a'+l1%26)) + "." + string(rune('a'+l2%26)) + "x.com")
		q := NewQuery(id, name, TypeAAAA)
		wire, err := q.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(q, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateTo(t *testing.T) {
	m := sampleMessage()
	full, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	small, wire, err := m.AppendTruncateTo(len(full)-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > len(full)-10 {
		t.Fatalf("truncated wire %d bytes, want <= %d", len(wire), len(full)-10)
	}
	if !small.Truncated {
		t.Fatal("TC bit not set after truncation")
	}
	// Original untouched.
	if m.Truncated || len(m.Additional) != 2 {
		t.Fatal("AppendTruncateTo mutated the original message")
	}
}

func TestTruncatePreservesOPT(t *testing.T) {
	m := sampleMessage()
	m.Additional = append(m.Additional, NewOPT(4096))
	// Force dropping everything droppable.
	tiny, _, err := m.AppendTruncateTo(56, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.OPT() == nil {
		t.Fatal("OPT dropped during truncation")
	}
	if len(tiny.Answers) != 0 {
		t.Fatalf("answers remain: %d", len(tiny.Answers))
	}
}

func TestTruncateImpossible(t *testing.T) {
	m := sampleMessage()
	if _, _, err := m.AppendTruncateTo(10, nil); err == nil {
		t.Fatal("fitting into 10 bytes should fail")
	}
}

func TestRRCopyIsDeep(t *testing.T) {
	txt := &TXT{RRHeader{MustName("t.com"), TypeTXT, ClassINET, 60}, []string{"a"}}
	c := txt.Copy().(*TXT)
	c.Texts[0] = "mutated"
	if txt.Texts[0] != "a" {
		t.Fatal("TXT Copy aliases Texts")
	}
	raw := &RawRecord{RRHeader{MustName("r.com"), Type(99), ClassINET, 60}, []byte{1}}
	rc := raw.Copy().(*RawRecord)
	rc.Data[0] = 9
	if raw.Data[0] != 1 {
		t.Fatal("RawRecord Copy aliases Data")
	}
	opt := NewOPT(4096)
	opt.SetClientSubnet(ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("1.2.3.0")})
	oc := opt.Copy().(*OPTRecord)
	oc.Options[0].Data[0] = 0xFF
	if opt.Options[0].Data[0] == 0xFF {
		t.Fatal("OPT Copy aliases option data")
	}
}

func TestUnpackCaseFolding(t *testing.T) {
	// Hand-encode a query for "WwW.ExAmPlE.CoM" and verify canonical decode.
	var wire []byte
	wire = append(wire, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	for _, l := range []string{"WwW", "ExAmPlE", "CoM"} {
		wire = append(wire, byte(len(l)))
		wire = append(wire, l...)
	}
	wire = append(wire, 0, 0, 1, 0, 1)
	m, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Questions[0].Name != MustName("www.example.com") {
		t.Fatalf("name = %v", m.Questions[0].Name)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeAAAA.String() != "AAAA" {
		t.Fatal("type names wrong")
	}
	if Type(999).String() != "TYPE999" {
		t.Fatalf("unknown type = %q", Type(999).String())
	}
	if tp, ok := TypeFromString("aaaa"); !ok || tp != TypeAAAA {
		t.Fatal("TypeFromString case-insensitive lookup failed")
	}
	if _, ok := TypeFromString("BOGUS"); ok {
		t.Fatal("TypeFromString accepted BOGUS")
	}
	// Every mnemonic in upper, lower and mixed case.
	for typ, name := range typeNames {
		mixed := []byte(strings.ToLower(name))
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] -= 'a' - 'A'
		}
		for _, s := range []string{name, strings.ToLower(name), string(mixed)} {
			if got, ok := TypeFromString(s); !ok || got != typ {
				t.Errorf("TypeFromString(%q) = %v, %v; want %v", s, got, ok, typ)
			}
		}
	}
	if RCodeNXDomain.String() != "NXDOMAIN" {
		t.Fatal("rcode name wrong")
	}
	if ClassINET.String() != "IN" || Class(7).String() != "CLASS7" {
		t.Fatal("class name wrong")
	}
}

func TestMessageStringSmoke(t *testing.T) {
	s := sampleMessage().String()
	if !bytes.Contains([]byte(s), []byte("www.example.com.")) {
		t.Fatalf("String output missing qname: %s", s)
	}
}

// TestSetClientSubnetWritesOnlyItsOwnBytes decodes a query with a client
// subnet and then one without into the same message, so the reused OPT
// record's option slice still holds, past its length, an option aliasing
// the first packet. Setting a subnet on it must leave that packet alone.
func TestSetClientSubnetWritesOnlyItsOwnBytes(t *testing.T) {
	ecsQuery := NewQuery(1, MustName("a.example.com"), TypeA)
	opt := NewOPT(1232)
	if err := opt.SetClientSubnet(ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("198.51.100.0")}); err != nil {
		t.Fatal(err)
	}
	ecsQuery.Additional = append(ecsQuery.Additional, opt)
	first, err := ecsQuery.Pack()
	if err != nil {
		t.Fatal(err)
	}
	plain := NewQuery(2, MustName("b.example.com"), TypeA)
	plain.Additional = append(plain.Additional, NewOPT(1232))
	second, err := plain.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := UnpackInto(&m, first); err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(&m, second); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), first...)
	if err := m.OPT().SetClientSubnet(ECS{Family: 1, SourcePrefix: 16, Addr: netip.MustParseAddr("203.0.0.0")}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, before) {
		t.Fatalf("SetClientSubnet wrote into an earlier packet:\n%x\n%x", before, first)
	}
}

// TestResetReplyReusesOPT replies through one message to EDNS queries with
// and without a client subnet: each reply echoes exactly the query's EDNS,
// and once the record and its subnet buffer exist a reply allocates nothing.
func TestResetReplyReusesOPT(t *testing.T) {
	subnet := ECS{Family: 1, SourcePrefix: 24, ScopePrefix: 24, Addr: netip.MustParseAddr("198.51.100.0")}
	withECS := NewQuery(1, MustName("a.example.com"), TypeA)
	qopt := NewOPT(4096)
	if err := qopt.SetClientSubnet(subnet); err != nil {
		t.Fatal(err)
	}
	withECS.Additional = append(withECS.Additional, qopt)
	plain := NewQuery(2, MustName("b.example.com"), TypeA)
	plain.Additional = append(plain.Additional, NewOPT(512))
	var r Message
	reply := func(q *Message) {
		opt := r.ResetReply(q, 1232)
		if ecs, ok := q.ClientSubnet(); ok {
			if err := opt.SetClientSubnet(ecs); err != nil {
				t.Fatal(err)
			}
		}
		r.Additional = append(r.Additional, opt)
	}
	for _, q := range []*Message{withECS, plain, withECS} {
		reply(q)
		if r.ID != q.ID || r.Questions[0] != q.Questions[0] || r.OPT().UDPSize() != 1232 {
			t.Fatalf("reply to %d = %v", q.ID, &r)
		}
		got, ok := r.ClientSubnet()
		if _, want := q.ClientSubnet(); ok != want || (ok && got != subnet) {
			t.Fatalf("reply to %d echoes subnet %+v (%v)", q.ID, got, ok)
		}
	}
	if opt := r.ResetReply(NewQuery(3, MustName("c.example.com"), TypeA), 1232); opt != nil {
		t.Fatal("reply to a query without EDNS got an OPT record")
	}
	if allocs := testing.AllocsPerRun(100, func() { reply(withECS); reply(plain) }); allocs != 0 {
		t.Fatalf("reused reply allocates %v times", allocs)
	}
}

func TestNewResponseEchoes(t *testing.T) {
	q := NewQuery(77, MustName("echo.example.com"), TypeTXT)
	q.RecursionDesired = true
	r := NewResponse(q)
	if r.ID != 77 || !r.Response || !r.RecursionDesired {
		t.Fatalf("response header = %+v", r.Header)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Fatal("question not echoed")
	}
}
