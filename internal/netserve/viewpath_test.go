package netserve

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/qod"
	"akamaidns/internal/zone"
)

// viewTestServers builds a socketless server pair over the same store: one
// serves through the tiers, the other is only ever asked through slowOnce —
// the decode path called directly, the reference the differential tests
// compare decoded responses against.
func viewTestServers(t *testing.T, master string, origin dnswire.Name) (*Server, *Server, *zone.Store) {
	t.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(master, origin))
	viewSrv := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	reference := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	return viewSrv, reference, store
}

func handleOnce(t *testing.T, srv *Server, wire []byte) []byte {
	t.Helper()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	out := srv.handlePacket(wire, benchSrc, false, sc)
	if out == nil {
		return nil
	}
	return append([]byte(nil), out...)
}

// slowOnce answers one query on the reference decode path, bypassing the
// hot-cache and compiled-view tiers.
func slowOnce(t *testing.T, srv *Server, wire []byte) []byte {
	t.Helper()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	out := srv.handleSlow(wire, benchSrc, false, sc, qod.LevelFull)
	if out == nil {
		return nil
	}
	return append([]byte(nil), out...)
}

// messageSummary flattens a decoded response for comparison: header flags,
// rcode, and every section rendered and sorted. Wire bytes can legally
// differ between the two paths (compression choices), decoded content
// cannot.
func messageSummary(t *testing.T, wire []byte) string {
	t.Helper()
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatalf("unpack: %v (% x)", err, wire)
	}
	render := func(rrs []dnswire.RR) []string {
		out := make([]string, 0, len(rrs))
		for _, rr := range rrs {
			if rr.Header().Type == dnswire.TypeOPT {
				// Compare OPT presence/payload separately from RR text.
				out = append(out, fmt.Sprintf("OPT:%d", rr.(*dnswire.OPTRecord).UDPSize()))
				continue
			}
			out = append(out, rr.String())
		}
		sort.Strings(out)
		return out
	}
	return fmt.Sprintf("rcode=%v aa=%v tc=%v rd=%v q=%v ans=%v auth=%v add=%v",
		m.RCode, m.Authoritative, m.Truncated, m.RecursionDesired,
		m.Questions, render(m.Answers), render(m.Authority), render(m.Additional))
}

// viewDiffQuery is one (qname, qtype) of a differential run.
type viewDiffQuery struct {
	qname string
	qtype dnswire.Type
}

// viewDiffQueries covers every response class the view tier can produce:
// positive answers, CNAME chains, wildcards, referrals with and without
// glue, NoData, NXDOMAIN, and out-of-zone REFUSED.
var viewDiffQueries = []viewDiffQuery{
	{"www.ex.test", dnswire.TypeA},
	{"www.ex.test", dnswire.TypeAAAA},    // NoData
	{"ex.test", dnswire.TypeSOA},         // apex
	{"nope.ex.test", dnswire.TypeA},      // NXDOMAIN
	{"deep.miss.ex.test", dnswire.TypeA}, // NXDOMAIN, multi-label
	{"sub.sub.ex.test", dnswire.TypeA},   // a label repeated right after itself
	{"host.sub.ex.test", dnswire.TypeA},  // referral + glue
	{"www.other.test", dnswire.TypeA},    // REFUSED
}

// rootDiffZone is hosted at the root, where the origin has no labels for a
// wire-path offset table to hold: an apex wildcard, an empty non-terminal
// (ent.) on the way to a record, a wildcard CNAME whose chain re-enters the
// apex wildcard, and a delegation.
const rootDiffZone = `
$ORIGIN .
$TTL 300
@          IN SOA ns1 host ( 1 3600 600 604800 30 )
@          IN NS ns1
ns1        IN A 198.51.100.1
*          IN A 192.0.2.42
deep.ent   IN TXT "below an empty non-terminal"
*.cw       IN CNAME landing.elsewhere
sub        IN NS ns1.sub
ns1.sub    IN A 198.51.100.2
`

var rootDiffQueries = []viewDiffQuery{
	{".", dnswire.TypeSOA},       // apex
	{"foo.bar", dnswire.TypeA},   // apex wildcard, two labels down
	{"foo", dnswire.TypeA},       // apex wildcard, one label down
	{"foo.bar", dnswire.TypeTXT}, // wildcard owner has no TXT: NXDOMAIN
	{"ent", dnswire.TypeA},       // empty non-terminal: NoData
	{"x.ent", dnswire.TypeA},     // ent exists and has no wildcard: NXDOMAIN
	{"x.cw", dnswire.TypeA},      // wildcard CNAME, then the apex wildcard
	{"host.sub", dnswire.TypeA},  // referral + glue
	{"ns1", dnswire.TypeA},       // plain hit
}

// cornerDiffQueries are the rows of zone.TestLookupCornerCases, the cases
// "Reachability Analysis of the Domain Name System" finds authoritative
// servers get wrong, over that test's zone (zone/testdata/corner.zone):
// empty non-terminals, wildcards under them, wildcard CNAMEs in and out of
// zone, a sibling blocking a wildcard, and names, data, an empty
// non-terminal and a wildcard occluded below a cut.
var cornerDiffQueries = []viewDiffQuery{
	{"ent1.ent2.corner.test", dnswire.TypeA},
	{"ent2.corner.test", dnswire.TypeA},
	{"other.ent1.ent2.corner.test", dnswire.TypeA},
	{"x.leaf.ent1.ent2.corner.test", dnswire.TypeA},
	{"any.w.ent.corner.test", dnswire.TypeA},
	{"a.b.w.ent.corner.test", dnswire.TypeA},
	{"w.ent.corner.test", dnswire.TypeA},
	{"v.ent.corner.test", dnswire.TypeA},
	{"*.w.ent.corner.test", dnswire.TypeA},
	{"any.w.ent.corner.test", dnswire.TypeTXT},
	{"x.cw.corner.test", dnswire.TypeA},
	{"x.cw.corner.test", dnswire.TypeCNAME},
	{"x.out.corner.test", dnswire.TypeA},
	{"host.star.corner.test", dnswire.TypeTXT},
	{"other.star.corner.test", dnswire.TypeTXT},
	{"x.host.star.corner.test", dnswire.TypeTXT},
	{"cut.corner.test", dnswire.TypeNS},
	{"occluded.cut.corner.test", dnswire.TypeA},
	{"anything.cut.corner.test", dnswire.TypeA},
	{"under.cut.corner.test", dnswire.TypeA},
	{"no.such.name.cut.corner.test", dnswire.TypeA},
	{"corner.test", dnswire.TypeNS},
}

// chainDiffZone names in-zone targets everywhere the view stores names
// relative to the origin — SOA, NS, CNAME, MX — and one where it must not
// (SRV): a CNAME chain of zone.maxCNAMEChain (8) hops, a CNAME loop that
// meets the limit, CNAMEs to the apex, into a referral and out of the zone,
// and a cut whose NS targets lie below it, at the apex level and at the
// cut itself.
const chainDiffZone = `
$ORIGIN chain.test.
$TTL 300
@        IN SOA ns1 hostmaster ( 9 3600 600 604800 30 )
@        IN NS ns1
@        IN NS ns.elsewhere.
ns1      IN A 198.51.100.1
ns1      IN AAAA 2001:db8::1
c0       IN CNAME c1
c1       IN CNAME c2
c2       IN CNAME c3
c3       IN CNAME c4
c4       IN CNAME c5
c5       IN CNAME c6
c6       IN CNAME c7
c7       IN CNAME c8
c8       IN A 192.0.2.8
loop     IN CNAME loop
toapex   IN CNAME @
tosub    IN CNAME h.sub
toout    IN CNAME www.elsewhere.
mx       IN MX 10 ns1
srv      IN SRV 1 2 53 ns1
nodata   IN TXT "t"
sub      IN NS ns1.sub
sub      IN NS ns1
sub      IN NS sub
sub      IN A 203.0.113.9
ns1.sub  IN A 203.0.113.1
`

// chainDiffQueries ask every name in 0x20 mixed case, as a resolver
// randomizing its question's case would: the view points owners and
// targets into the question, whose case the response must echo.
var chainDiffQueries = []viewDiffQuery{
	{"C0.ChAiN.TeSt", dnswire.TypeA},         // 8 in-zone hops
	{"c1.CHAIN.test", dnswire.TypeAAAA},      // chain ends in NoData
	{"LoOp.chain.TEST", dnswire.TypeA},       // chain limit
	{"ToApEx.Chain.Test", dnswire.TypeA},     // target is the origin: NoData
	{"toapex.chain.test", dnswire.TypeMX},    // the apex has no MX either
	{"ToSuB.cHaIn.TeSt", dnswire.TypeA},      // CNAME into a referral
	{"ToOuT.Chain.Test", dnswire.TypeA},      // CNAME out of the zone
	{"H.SuB.ChAiN.tEsT", dnswire.TypeA},      // referral, glue in and out of the cut
	{"SUB.chain.test", dnswire.TypeNS},       // the cut itself
	{"NoPe.Chain.Test", dnswire.TypeA},       // NXDOMAIN
	{"a.B.nOpE.chain.test", dnswire.TypeTXT}, // NXDOMAIN, deeper
	{"NoData.ChAiN.TeSt", dnswire.TypeA},     // NODATA
	{"Ns1.ChAiN.TeSt", dnswire.TypeMX},       // NODATA at a glue owner
	{"Mx.ChAiN.TeSt", dnswire.TypeMX},        // in-zone exchange
	{"SrV.ChAiN.TeSt", dnswire.TypeSRV},      // SRV target stays uncompressed
	{"cHaIn.TeSt", dnswire.TypeSOA},          // in-zone MNAME and RNAME
	{"CHAIN.TEST", dnswire.TypeNS},           // one target in, one out
}

// caseQuestion spells the packed query's question name with the case of
// qname, as a resolver using 0x20 randomization would send it.
func caseQuestion(wire []byte, qname string) {
	off := 12
	for _, label := range strings.Split(strings.TrimSuffix(qname, "."), ".") {
		copy(wire[off+1:], label)
		off += 1 + len(label)
	}
}

// TestViewServeDifferential sends the same queries through the compiled-view
// tier and the reference decode path and requires identical decoded
// responses — plain and with an EDNS OPT attached, the question in the case
// each query is written in.
func TestViewServeDifferential(t *testing.T) {
	for _, zc := range []struct {
		master  string
		origin  dnswire.Name
		queries []viewDiffQuery
	}{
		{benchDelegationZone, dnswire.MustName("ex.test"), viewDiffQueries},
		{rootDiffZone, dnswire.Root, rootDiffQueries},
		{cornerZone(t), dnswire.MustName("corner.test"), cornerDiffQueries},
		{chainDiffZone, dnswire.MustName("chain.test"), chainDiffQueries},
	} {
		viewSrv, reference, _ := viewTestServers(t, zc.master, zc.origin)
		id := uint16(100)
		for _, edns := range []bool{false, true} {
			for _, tc := range zc.queries {
				id++
				q := dnswire.NewQuery(id, dnswire.MustName(tc.qname), tc.qtype)
				if edns {
					q.Additional = append(q.Additional, dnswire.NewOPT(1232))
				}
				wire, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				caseQuestion(wire, tc.qname)
				got := handleOnce(t, viewSrv, wire)
				want := slowOnce(t, reference, wire)
				if got == nil || want == nil {
					t.Fatalf("%s/%v edns=%v: nil response (view=%v reference=%v)",
						tc.qname, tc.qtype, edns, got != nil, want != nil)
				}
				gs, ws := messageSummary(t, got), messageSummary(t, want)
				if gs != ws {
					t.Errorf("%s/%v edns=%v:\n view      %s\n reference %s", tc.qname, tc.qtype, edns, gs, ws)
				}
			}
		}
		if viewSrv.Metrics.ViewServed.Load() == 0 {
			t.Fatalf("zone %s: view tier never served", zc.origin)
		}
		if reference.Metrics.ViewServed.Load() != 0 {
			t.Fatalf("zone %s: the reference server answered from the view tier", zc.origin)
		}
	}
}

// TestViewServeGraduation: the first query for an existing name is view-
// served and populates the hot cache; the repeat is served by the packed-
// response tier. Random-subdomain NXDOMAIN misses never graduate.
func TestViewServeGraduation(t *testing.T) {
	srv, _, _ := viewTestServers(t, serveZone, dnswire.MustName("ex.test"))
	// One worker throughout: the repeat must meet the hot cache the first
	// query filled, and sync.Pool may drop a pooled scratch between calls
	// (it does so at random under -race).
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	handle := func(wire []byte) []byte {
		return append([]byte(nil), srv.handlePacket(wire, benchSrc, false, sc)...)
	}
	q := dnswire.NewQuery(7, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	first := handle(wire)
	if srv.Metrics.ViewServed.Load() != 1 {
		t.Fatalf("first query: ViewServed = %d", srv.Metrics.ViewServed.Load())
	}
	second := handle(wire)
	if srv.Metrics.ViewServed.Load() != 1 {
		t.Fatal("repeat query did not graduate to the hot cache")
	}
	if messageSummary(t, first) != messageSummary(t, second) {
		t.Fatalf("graduated answer differs:\n %s\n %s",
			messageSummary(t, first), messageSummary(t, second))
	}
	// NXDOMAIN flood shape: unique names, all view-served, none cached.
	for i := 0; i < 8; i++ {
		nq := dnswire.NewQuery(uint16(20+i), dnswire.MustName(fmt.Sprintf("r%d.ex.test", i)), dnswire.TypeA)
		nw, err := nq.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if handle(nw) == nil {
			t.Fatal("no response")
		}
		if handle(nw) == nil { // exact repeat: still not cached
			t.Fatal("no response")
		}
	}
	if got := srv.Metrics.ViewServed.Load(); got != 1+16 {
		t.Fatalf("NXDOMAIN queries view-served = %d (want 17: misses never enter the cache)", got)
	}
}

// TestViewServeWhileSwapping hammers the handle path from several goroutines
// while the store concurrently swaps zone versions — a zone's next version
// installed, whole zones added/removed. Run under -race this proves the
// serve path takes no read-side locks on shared mutable state.
func TestViewServeWhileSwapping(t *testing.T) {
	srv, _, store := viewTestServers(t, benchDelegationZone, dnswire.MustName("ex.test"))
	queries := make([][]byte, 0, len(viewDiffQueries))
	for i, tc := range viewDiffQueries {
		q := dnswire.NewQuery(uint16(i+1), dnswire.MustName(tc.qname), tc.qtype)
		w, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, w)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*scratch)
			defer scratchPool.Put(sc)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv.handlePacket(queries[i%len(queries)], benchSrc, false, sc)
			}
		}()
	}
	other := dnswire.MustName("other.test")
	const otherZone = `
$ORIGIN other.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.9
www  IN A 192.0.2.9
`
	for i := 0; i < 200; i++ {
		putNext(t, store, zone.Delta{ToSerial: uint32(100 + i)})
		if i%2 == 0 {
			store.Put(zone.MustParseMaster(otherZone, other))
		} else {
			store.Delete(other)
		}
	}
	close(stop)
	wg.Wait()
}

// cornerZone reads zone.TestLookupCornerCases' zone.
func cornerZone(t *testing.T) string {
	t.Helper()
	text, err := os.ReadFile("../zone/testdata/corner.zone")
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}
