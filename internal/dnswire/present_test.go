package dnswire

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// TestRRPresentationFormats checks the zone-file-style String rendering of
// every record type.
func TestRRPresentationFormats(t *testing.T) {
	h := func(tp Type) RRHeader { return RRHeader{MustName("h.example.com"), tp, ClassINET, 300} }
	cases := []struct {
		rr   RR
		want string
	}{
		{&A{h(TypeA), netip.MustParseAddr("192.0.2.1")}, "192.0.2.1"},
		{&AAAA{h(TypeAAAA), netip.MustParseAddr("2001:db8::1")}, "2001:db8::1"},
		{&NS{h(TypeNS), MustName("ns.example.net")}, "ns.example.net."},
		{&CNAME{h(TypeCNAME), MustName("t.example.net")}, "t.example.net."},
		{&PTR{h(TypePTR), MustName("p.example.net")}, "p.example.net."},
		{&SOA{h(TypeSOA), MustName("m.example.com"), MustName("r.example.com"), 9, 1, 2, 3, 4}, "9 1 2 3 4"},
		{&MX{h(TypeMX), 10, MustName("mx.example.com")}, "10 mx.example.com."},
		{&TXT{h(TypeTXT), []string{"a b", "c"}}, `"a b" "c"`},
		{&SRV{h(TypeSRV), 1, 2, 3, MustName("s.example.com")}, "1 2 3 s.example.com."},
		{&CAA{h(TypeCAA), 0, "issue", "ca.example.net"}, `issue "ca.example.net"`},
		{&RawRecord{RRHeader{MustName("h.example.com"), Type(99), ClassINET, 300}, []byte{0xAB}}, "ab"},
	}
	for _, c := range cases {
		s := c.rr.String()
		if !strings.Contains(s, c.want) {
			t.Errorf("%T String = %q, missing %q", c.rr, s, c.want)
		}
		if !strings.HasPrefix(s, "h.example.com.\t300\tIN\t") {
			t.Errorf("%T String = %q, missing owner/TTL/class preamble", c.rr, s)
		}
	}
	// Empty TXT still encodes one empty string.
	empty := &TXT{h(TypeTXT), nil}
	buf, err := empty.packRData(nil)
	if err != nil || len(buf) != 1 || buf[0] != 0 {
		t.Fatalf("empty TXT rdata = %x, %v", buf, err)
	}
}

// TestRRCopyAllTypes confirms Copy yields an equal, non-aliased record for
// every type.
func TestRRCopyAllTypes(t *testing.T) {
	h := func(tp Type) RRHeader { return RRHeader{MustName("c.example.com"), tp, ClassINET, 60} }
	all := []RR{
		&A{h(TypeA), netip.MustParseAddr("192.0.2.9")},
		&AAAA{h(TypeAAAA), netip.MustParseAddr("2001:db8::9")},
		&NS{h(TypeNS), MustName("ns.example.com")},
		&CNAME{h(TypeCNAME), MustName("t.example.com")},
		&PTR{h(TypePTR), MustName("p.example.com")},
		&SOA{h(TypeSOA), MustName("m.example.com"), MustName("r.example.com"), 1, 2, 3, 4, 5},
		&MX{h(TypeMX), 5, MustName("mx.example.com")},
		&TXT{h(TypeTXT), []string{"x"}},
		&SRV{h(TypeSRV), 1, 2, 3, MustName("s.example.com")},
		&CAA{h(TypeCAA), 128, "issuewild", "v"},
		&RawRecord{RRHeader{MustName("c.example.com"), Type(99), ClassINET, 60}, []byte{1, 2}},
	}
	for _, rr := range all {
		cp := rr.Copy()
		if !reflect.DeepEqual(rr, cp) {
			t.Errorf("%T Copy not equal", rr)
		}
		cp.Header().TTL = 999
		if rr.Header().TTL != 60 {
			t.Errorf("%T Copy aliases header", rr)
		}
	}
}

func TestOPTAccessors(t *testing.T) {
	o := NewOPT(4096)
	if o.UDPSize() != 4096 {
		t.Fatal("UDPSize")
	}
	if NewOPT(100).UDPSize() != 512 {
		t.Fatal("UDPSize floor")
	}
	if o.Version() != 0 || o.Do() {
		t.Fatal("fresh OPT version/DO")
	}
	o.TTL |= 1 << 15
	if !o.Do() {
		t.Fatal("Do set")
	}
	if !strings.Contains(o.String(), "udp=4096") {
		t.Fatalf("OPT String = %q", o.String())
	}
}

func TestCookieHelpersInPackage(t *testing.T) {
	var cli [ClientCookieLen]byte
	copy(cli[:], "abcdefgh")
	srv := ComputeServerCookie(cli, netip.MustParseAddr("192.0.2.1"), 7)
	if len(srv) != 16 {
		t.Fatalf("server cookie length %d", len(srv))
	}
	ck := Cookie{Client: cli, Server: srv}
	if !VerifyServerCookie(ck, netip.MustParseAddr("192.0.2.1"), 7) {
		t.Fatal("verify failed")
	}
	if VerifyServerCookie(Cookie{Client: cli}, netip.MustParseAddr("192.0.2.1"), 7) {
		t.Fatal("empty server cookie verified")
	}
	short := Cookie{Client: cli, Server: srv[:8]}
	if VerifyServerCookie(short, netip.MustParseAddr("192.0.2.1"), 7) {
		t.Fatal("length-mismatched cookie verified")
	}
	// Message-level plumbing.
	q := NewQuery(1, MustName("x.test"), TypeA)
	if _, ok := CookieFromMessage(q); ok {
		t.Fatal("cookie found on OPT-less message")
	}
	opt := NewOPT(1232)
	if err := opt.SetCookie(ck); err != nil {
		t.Fatal(err)
	}
	// Setting twice replaces, not duplicates.
	if err := opt.SetCookie(ck); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, o := range opt.Options {
		if o.Code == 10 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("cookie options = %d", n)
	}
	q.Additional = append(q.Additional, opt)
	got, ok := CookieFromMessage(q)
	if !ok || got.Client != cli {
		t.Fatal("CookieFromMessage")
	}
}

func TestQuestionAndResultStrings(t *testing.T) {
	q := Question{MustName("q.test"), TypeAAAA, ClassINET}
	if q.String() != "q.test. IN AAAA" {
		t.Fatalf("Question String = %q", q.String())
	}
}
