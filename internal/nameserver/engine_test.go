package nameserver

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

func n(s string) dnswire.Name { return dnswire.MustName(s) }

const testZone = `
$ORIGIN ex.com.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
cdn  IN CNAME www.edge.ex.com.
www.edge IN A 192.0.2.77
sub  IN NS ns1.sub
ns1.sub IN A 192.0.2.53
`

func testStore(t *testing.T) *zone.Store {
	t.Helper()
	st := zone.NewStore()
	st.Put(zone.MustParseMaster(testZone, n("ex.com")))
	return st
}

func TestEngineAnswerSuccess(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(1, n("www.ex.com"), dnswire.TypeA)
	resp, zn, crashed := e.Answer(q, ResolverKey("r1"))
	if crashed {
		t.Fatal("crashed")
	}
	if zn != n("ex.com") {
		t.Fatalf("zone = %v", zn)
	}
	if !resp.Authoritative || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestEngineAnswerNXDomain(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(2, n("junk.ex.com"), dnswire.TypeA)
	resp, _, _ := e.Answer(q, ResolverKey("r1"))
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	if len(resp.Authority) != 1 {
		t.Fatal("negative answer missing SOA")
	}
}

func TestEngineAnswerDelegation(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(3, n("host.sub.ex.com"), dnswire.TypeA)
	resp, _, _ := e.Answer(q, ResolverKey("r1"))
	if resp.Authoritative {
		t.Fatal("referral marked authoritative")
	}
	if len(resp.Authority) != 1 || len(resp.Additional) != 1 {
		t.Fatalf("referral sections: %d/%d", len(resp.Authority), len(resp.Additional))
	}
}

func TestEngineRefusesForeign(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(4, n("www.other.net"), dnswire.TypeA)
	resp, zn, _ := e.Answer(q, ResolverKey("r1"))
	if resp.RCode != dnswire.RCodeRefused || !zn.IsZero() {
		t.Fatalf("rcode = %v zone = %v", resp.RCode, zn)
	}
}

func TestEngineFormErr(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(5, n("www.ex.com"), dnswire.TypeA)
	q.Questions = nil
	resp, _, _ := e.Answer(q, ResolverKey("r1"))
	if resp.RCode != dnswire.RCodeFormErr {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	q2 := dnswire.NewQuery(6, n("www.ex.com"), dnswire.TypeA)
	q2.OpCode = dnswire.OpNotify
	resp2, _, _ := e.Answer(q2, ResolverKey("r1"))
	if resp2.RCode != dnswire.RCodeFormErr {
		t.Fatalf("non-query opcode rcode = %v", resp2.RCode)
	}
}

func TestEngineQoDTrap(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(7, n(dnswire.QoDMarkerLabel+".ex.com"), dnswire.TypeA)
	_, _, crashed := e.Answer(q, ResolverKey("r1"))
	if !crashed {
		t.Fatal("QoD trap did not fire")
	}
}

func TestEngineEDNSEcho(t *testing.T) {
	e := NewEngine(testStore(t))
	q := dnswire.NewQuery(8, n("www.ex.com"), dnswire.TypeA)
	opt := dnswire.NewOPT(4096)
	ecs := dnswire.ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("203.0.113.0")}
	if err := opt.SetClientSubnet(ecs); err != nil {
		t.Fatal(err)
	}
	q.Additional = append(q.Additional, opt)
	resp, _, _ := e.Answer(q, ResolverKey("r1"))
	ro := resp.OPT()
	if ro == nil {
		t.Fatal("response missing OPT")
	}
	// No tailorer: the answer holds for every subnet, scope 0.
	re, ok := ro.ClientSubnet()
	if !ok || re.SourcePrefix != 24 || re.ScopePrefix != 0 || re.Addr != ecs.Addr {
		t.Fatalf("response ECS = %+v ok=%v", re, ok)
	}
}

// TestEngineECSScope: the response's scope prefix is the source prefix only
// when tailoring rewrote the answer for the client's subnet (RFC 7871
// §7.2.1); an answer the tailorer had no opinion on is scoped 0.
func TestEngineECSScope(t *testing.T) {
	e := NewEngine(testStore(t))
	e.Tailor = &fixedTailor{name: n("www.ex.com"), addr: netip.MustParseAddr("198.51.100.1")}
	for _, c := range []struct {
		qname string
		qtype dnswire.Type
		scope uint8
	}{
		{"www.ex.com", dnswire.TypeA, 20},     // tailored
		{"www.ex.com", dnswire.TypeAAAA, 0},   // tailoring is for A only
		{"cdn.ex.com", dnswire.TypeA, 0},      // the chain ends at a name the tailorer has no opinion on
		{"nope.ex.com", dnswire.TypeA, 0},     // NXDOMAIN
		{"host.sub.ex.com", dnswire.TypeA, 0}, // referral
		{"www.other.zone", dnswire.TypeA, 0},  // REFUSED
	} {
		q := dnswire.NewQuery(12, n(c.qname), c.qtype)
		opt := dnswire.NewOPT(4096)
		if err := opt.SetClientSubnet(dnswire.ECS{Family: 1, SourcePrefix: 20, Addr: netip.MustParseAddr("203.0.112.0")}); err != nil {
			t.Fatal(err)
		}
		q.Additional = append(q.Additional, opt)
		resp, _, _ := e.Answer(q, ResolverKey("r1"))
		re, ok := resp.OPT().ClientSubnet()
		if !ok || re.SourcePrefix != 20 || re.ScopePrefix != c.scope {
			t.Errorf("%s %v: response ECS = %+v ok=%v, want scope %d", c.qname, c.qtype, re, ok, c.scope)
		}
	}
}

// fixedTailor always returns one address for a specific name.
type fixedTailor struct {
	name  dnswire.Name
	addr  netip.Addr
	byKey map[ClientKey]netip.Addr
}

func (f *fixedTailor) TailorA(qname dnswire.Name, client ClientKey) ([]netip.Addr, uint32, bool) {
	if qname != f.name {
		return nil, 0, false
	}
	if f.byKey != nil {
		if a, ok := f.byKey[client]; ok {
			return []netip.Addr{a}, 20, true
		}
	}
	return []netip.Addr{f.addr}, 20, true
}

func TestEngineTailoring(t *testing.T) {
	e := NewEngine(testStore(t))
	e.Tailor = &fixedTailor{name: n("www.ex.com"), addr: netip.MustParseAddr("198.51.100.99")}
	q := dnswire.NewQuery(9, n("www.ex.com"), dnswire.TypeA)
	resp, _, _ := e.Answer(q, ResolverKey("r1"))
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	a := resp.Answers[0].(*dnswire.A)
	if a.Addr != netip.MustParseAddr("198.51.100.99") || a.TTL != 20 {
		t.Fatalf("tailored answer = %v", a)
	}
}

func TestEngineTailoringFollowsCNAME(t *testing.T) {
	e := NewEngine(testStore(t))
	e.Tailor = &fixedTailor{name: n("www.edge.ex.com"), addr: netip.MustParseAddr("198.51.100.42")}
	q := dnswire.NewQuery(10, n("cdn.ex.com"), dnswire.TypeA)
	resp, _, _ := e.Answer(q, ResolverKey("r1"))
	// CNAME kept, A replaced.
	var sawCNAME bool
	var addr netip.Addr
	for _, rr := range resp.Answers {
		switch v := rr.(type) {
		case *dnswire.CNAME:
			sawCNAME = true
		case *dnswire.A:
			addr = v.Addr
		}
	}
	if !sawCNAME || addr != netip.MustParseAddr("198.51.100.42") {
		t.Fatalf("chain answers = %v", resp.Answers)
	}
}

func TestEngineTailoringECSKey(t *testing.T) {
	e := NewEngine(testStore(t))
	ft := &fixedTailor{
		name: n("www.ex.com"),
		addr: netip.MustParseAddr("198.51.100.1"),
		byKey: map[ClientKey]netip.Addr{
			ECSClientKey(dnswire.ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("203.0.113.0")}): netip.MustParseAddr("198.51.100.2"),
		},
	}
	e.Tailor = ft
	q := dnswire.NewQuery(11, n("www.ex.com"), dnswire.TypeA)
	opt := dnswire.NewOPT(4096)
	opt.SetClientSubnet(dnswire.ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("203.0.113.0")})
	q.Additional = append(q.Additional, opt)
	resp, _, _ := e.Answer(q, ResolverKey("resolver-far-away"))
	a := findA(resp)
	if a == nil || a.Addr != netip.MustParseAddr("198.51.100.2") {
		t.Fatalf("ECS-keyed answer = %v", a)
	}
}

func findA(m *dnswire.Message) *dnswire.A {
	for _, rr := range m.Answers {
		if a, ok := rr.(*dnswire.A); ok {
			return a
		}
	}
	return nil
}

func TestStoreZoneInfoAdapter(t *testing.T) {
	st := testStore(t)
	zi := StoreZoneInfo{Store: st}
	for name, want := range map[string]bool{
		"ex.com":          true,  // apex
		"www.ex.com":      true,  // owner
		"edge.ex.com":     true,  // empty non-terminal
		"sub.ex.com":      true,  // delegation point
		"host.sub.ex.com": true,  // below it: a referral
		"junk.ex.com":     false, // no node, no cut, no wildcard
		"x.www.ex.com":    false, // below a leaf
		"www.other.zone":  true,  // hosted nowhere: REFUSED, not NXDOMAIN
	} {
		if got := zi.CanExist(n(name).AppendWire(nil)); got != want {
			t.Errorf("CanExist(%s) = %v, want %v", name, got, want)
		}
	}
	// The adapter holds no copy of the zone: a new version is its new answer.
	st.Put(zone.MustParseMaster(testZone+"junk IN A 192.0.2.9\n*.www IN A 192.0.2.8\n", n("ex.com")))
	for _, name := range []string{"junk.ex.com", "x.www.ex.com"} {
		if !zi.CanExist(n(name).AppendWire(nil)) {
			t.Errorf("CanExist(%s) = false after the zone gained it", name)
		}
	}
	nope := n("nope.ex.com").AppendWire(nil)
	if allocs := testing.AllocsPerRun(100, func() { zi.CanExist(nope) }); allocs != 0 {
		t.Errorf("CanExist allocates %v per call", allocs)
	}
}

// panicTailor panics while tailoring the A answer of www.edge.ex.com: a
// query of death that is a real Go panic, and only for one qtype.
type panicTailor struct{}

func (panicTailor) TailorA(qname dnswire.Name, _ ClientKey) ([]netip.Addr, uint32, bool) {
	if qname == n("www.edge.ex.com") {
		panic("tailoring bug")
	}
	return nil, 0, false
}

// TestMinimizeQoD: the minimizer widens a crash to the shortest crashing
// suffix, drops the qtype and flag pins only when probes crash without
// them, counts a probe's panic as a crash, and reports a query that does
// not crash as such.
func TestMinimizeQoD(t *testing.T) {
	eng := NewEngine(testStore(t))
	eng.Tailor = panicTailor{}
	wire := func(name string) string { return string(n(name).AppendWire(nil)) }
	for _, tc := range []struct {
		qname      string
		qtype      dnswire.Type
		suffix     string
		pinnedType dnswire.Type
	}{
		// The engine's trap fires on the marker anywhere in the name: the
		// label that carries it is the shortest crashing suffix.
		{"a.b." + dnswire.QoDMarkerLabel + ".ex.com", dnswire.TypeMX, dnswire.QoDMarkerLabel + ".ex.com", 0},
		// Only the A answer of www.edge.ex.com panics: the type stays pinned.
		{"www.edge.ex.com", dnswire.TypeA, "www.edge.ex.com", dnswire.TypeA},
		// The CNAME leads to the panicking owner; no suffix of cdn.ex.com does.
		{"cdn.ex.com", dnswire.TypeA, "cdn.ex.com", dnswire.TypeA},
	} {
		q := dnswire.NewQuery(7, n(tc.qname), tc.qtype)
		q.RecursionDesired = true
		sig, crashed := eng.MinimizeQoD(q)
		if !crashed {
			t.Fatalf("%s: query did not crash", tc.qname)
		}
		if string(sig.Suffix) != wire(tc.suffix) || sig.QType != uint16(tc.pinnedType) || sig.FlagMask != 0 {
			t.Errorf("%s: signature %s type %d mask %#x, want %s type %d mask 0",
				tc.qname, sig.SuffixString(), sig.QType, sig.FlagMask, tc.suffix, tc.pinnedType)
		}
	}
	if sig, crashed := eng.MinimizeQoD(dnswire.NewQuery(7, n("www.ex.com"), dnswire.TypeA)); crashed {
		t.Errorf("clean query reported as a crash: %+v", sig)
	}
}

// subnetTailor rewrites www.edge.ex.com for ECS clients only, so an answer
// that reached into the zone's records would show in the next non-ECS one.
type subnetTailor struct{}

func (subnetTailor) TailorA(qname dnswire.Name, client ClientKey) ([]netip.Addr, uint32, bool) {
	if qname != n("www.edge.ex.com") || !client.ECS {
		return nil, 0, false
	}
	return []netip.Addr{netip.MustParseAddr("198.18.0.1")}, 20, true
}

// TestAnswerIntoMatchesAnswer runs a random query sequence through one
// reused response and holds every answer to the fresh-message Answer of an
// engine over a fresh copy of the zone: reuse leaks nothing from one
// answer into the next (no stale EDNS option, section or flag), and writing
// into the reused response — tailoring included — never writes into the
// zone's shared record slices.
func TestAnswerIntoMatchesAnswer(t *testing.T) {
	got := &Engine{Store: testStore(t), Tailor: subnetTailor{}}
	names := []string{"www.ex.com", "cdn.ex.com", "www.edge.ex.com", "host.sub.ex.com", "junk.ex.com", "ex.com", "www.other.net"}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeANY, dnswire.TypeTXT, dnswire.TypeNS}
	edns := []func(*dnswire.Message){
		nil,
		func(q *dnswire.Message) { q.Additional = append(q.Additional, dnswire.NewOPT(4096)) },
		func(q *dnswire.Message) {
			opt := dnswire.NewOPT(1232)
			opt.SetClientSubnet(dnswire.ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("203.0.113.0")})
			q.Additional = append(q.Additional, opt)
		},
		func(q *dnswire.Message) {
			opt := dnswire.NewOPT(1232)
			opt.SetClientSubnet(dnswire.ECS{Family: 2, SourcePrefix: 56, Addr: netip.MustParseAddr("2001:db8:aa00::")})
			opt.SetCookie(dnswire.Cookie{Client: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}})
			q.Additional = append(q.Additional, opt)
		},
		func(q *dnswire.Message) { q.Questions = nil },
	}
	rng := rand.New(rand.NewSource(5))
	var resp dnswire.Message
	for i := 0; i < 2000; i++ {
		q := dnswire.NewQuery(uint16(i), n(names[rng.Intn(len(names))]), types[rng.Intn(len(types))])
		q.RecursionDesired = rng.Intn(2) == 0
		if edit := edns[rng.Intn(len(edns))]; edit != nil {
			edit(q)
		}
		ref := &Engine{Store: testStore(t), Tailor: subnetTailor{}}
		want, wantZone, _ := ref.Answer(q, ResolverKey("r1"))
		z, _ := got.AnswerInto(&resp, q, ResolverKey("r1"))
		ww, err := want.Pack()
		if err != nil {
			t.Fatal(err)
		}
		gw, err := resp.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ww, gw) || wantZone.IsZero() != (z == nil) || z != nil && z != got.Store.Get(wantZone) {
			t.Fatalf("query %d (%v): reused response differs\n got  %v\n want %v", i, q.Questions, &resp, want)
		}
	}
}
