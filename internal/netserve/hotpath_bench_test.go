package netserve

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"strings"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/qod"
	"akamaidns/internal/udpbatch"
	"akamaidns/internal/zone"
)

// benchServer builds a server without opening sockets: the handle path is
// pure computation, so it can be benchmarked directly.
func benchServer(b *testing.B) *Server {
	b.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	return New(DefaultConfig(), nameserver.NewEngine(store), nil)
}

// benchScoredServer is benchServer with the pipeline `authdns -filters`
// wires, tuned so that the bench traffic scores clean: the loopback
// resolver's learned rate is out of reach and the zone never turns hot. What
// is measured is the gate's own cost, not a penalty's bookkeeping.
func benchScoredServer(b *testing.B) *Server {
	b.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	rl := filters.NewRateLimit()
	rl.Learn(benchSrc.Addr().String(), 1e12)
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	nx.Threshold = math.MaxInt
	return New(DefaultConfig(), nameserver.NewEngine(store), filters.NewPipeline(rl, nx))
}

// benchDelegationZone adds a delegated child below the bench zone so
// referral responses (NS + glue) can be measured.
const benchDelegationZone = `
$ORIGIN ex.test.
$TTL 300
@        IN SOA ns1 host ( 7 3600 600 604800 30 )
@        IN NS ns1
ns1      IN A 198.51.100.1
www      IN A 192.0.2.1
sub      IN NS ns1.sub
sub      IN NS ns2.sub
ns1.sub  IN A 203.0.113.1
ns2.sub  IN A 203.0.113.2
`

var benchSrc = netip.MustParseAddrPort("127.0.0.1:5353")

func benchHandle(b *testing.B, srv *Server, wire []byte) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := srv.handlePacket(wire, benchSrc, false, sc); out == nil {
			b.Fatal("no response")
		}
	}
}

// BenchmarkHandleUDP measures the full server-side cost of one UDP query
// (decode, lookup, encode) with no sockets in the way: the cached-answer
// hot path after the first iteration populates the packed-response cache.
func BenchmarkHandleUDP(b *testing.B) {
	srv := benchServer(b)
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	benchHandle(b, srv, wire)
}

// BenchmarkHandleUDPScoredHit is BenchmarkHandleUDP with the scoring
// pipeline on: the scored filters.Query lives in the worker scratch, so the
// gate adds no allocation to a hot hit.
func BenchmarkHandleUDPScoredHit(b *testing.B) {
	srv := benchScoredServer(b)
	wire, err := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	benchHandle(b, srv, wire)
}

// BenchmarkHandleUDPScoredMissNXDOMAIN is BenchmarkHandleUDPMissNXDOMAIN
// with the scoring pipeline on: the filters read the folded name the view
// tier routed on, so the gate adds no allocation to a miss.
func BenchmarkHandleUDPScoredMissNXDOMAIN(b *testing.B) {
	benchHandleUnique(b, benchScoredServer(b), uniqueQueryWire(b, "ex.test"), true)
}

// BenchmarkHandleUDPScoredFlood is the flood_mix attack packet: a random
// subdomain of a zone the NXDOMAIN filter already holds hot, so every query
// asks the zone's view whether the name can exist, is penalized, and is
// still admitted (60 < Smax) and answered.
func BenchmarkHandleUDPScoredFlood(b *testing.B) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	rl := filters.NewRateLimit()
	rl.Learn(benchSrc.Addr().String(), 1e12)
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	nx.Threshold = 1
	nx.ObserveResponse(dnswire.MustName("ex.test"), true, 0)
	srv := New(DefaultConfig(), nameserver.NewEngine(store), filters.NewPipeline(rl, nx))
	benchHandleUnique(b, srv, uniqueQueryWire(b, "ex.test"), true)
	if nx.Flagged.Load() < uint64(b.N) {
		b.Fatalf("%d of %d flood queries penalized", nx.Flagged.Load(), b.N)
	}
}

// BenchmarkHandleUDPEDNS is the same with an EDNS0 OPT attached (the common
// modern resolver shape: larger advertised payload, OPT echo in response).
func BenchmarkHandleUDPEDNS(b *testing.B) {
	srv := benchServer(b)
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	q.Additional = append(q.Additional, dnswire.NewOPT(1232))
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	benchHandle(b, srv, wire)
}

// BenchmarkHandleUDPECS is the slow path a miss_mix ECS query takes: an A
// query at a host carrying a client subnet, which neither wire tier answers,
// so every iteration decodes the query, looks the name up in the zone's view
// and packs the tailored-scope reply.
func BenchmarkHandleUDPECS(b *testing.B) {
	wire, err := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	q, err := dnswire.Unpack(wire)
	if err != nil {
		b.Fatal(err)
	}
	withECS(q)
	if wire, err = q.Pack(); err != nil {
		b.Fatal(err)
	}
	benchHandle(b, benchServer(b), wire)
}

// BenchmarkHandleUDPNoCache is the slow path every query took before the
// hot cache and compiled views existed — full decode, zone lookup, and pack
// per packet — reached by calling the reference tier directly.
func BenchmarkHandleUDPNoCache(b *testing.B) {
	srv := benchServer(b)
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := srv.handleSlow(wire, benchSrc, false, sc, qod.LevelFull); out == nil {
			b.Fatal("no response")
		}
	}
}

// benchHandleUnique runs the handle path with a fresh qname every iteration
// by rewriting the first label in place: the cache-busting shape of a
// random-subdomain flood (§5.3, Fig 10), where every query is a miss by
// construction. prefix is the mutable first label of the packed query; it
// must be exactly 16 octets.
func benchHandleUnique(b *testing.B, srv *Server, wire []byte, wantResp bool) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	label := wire[13 : 13+16] // 12-byte header + length octet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i)
		for j := 0; j < 16; j++ {
			label[j] = "0123456789abcdef"[v&0xF]
			v >>= 4
		}
		out := srv.handlePacket(wire, benchSrc, false, sc)
		if wantResp && out == nil {
			b.Fatal("no response")
		}
	}
}

// uniqueQueryWire packs a query whose first label is a 16-octet placeholder
// that benchHandleUnique rewrites per iteration.
func uniqueQueryWire(b *testing.B, suffix string) []byte {
	b.Helper()
	q := dnswire.NewQuery(1, dnswire.MustName("aaaaaaaaaaaaaaaa."+suffix), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

// BenchmarkHandleUDPMissNXDOMAIN measures the miss path under a random-
// subdomain NXDOMAIN flood: every iteration queries a name that has never
// been seen before, so the packed-response hot cache cannot help and the
// cost is the full zone-routing + lookup + negative-answer assembly.
func BenchmarkHandleUDPMissNXDOMAIN(b *testing.B) {
	srv := benchServer(b)
	benchHandleUnique(b, srv, uniqueQueryWire(b, "ex.test"), true)
}

// BenchmarkHandleUDPDelegation measures referral assembly (NS + glue) for
// unique names below a zone cut — also cache-busting by construction.
func BenchmarkHandleUDPDelegation(b *testing.B) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(benchDelegationZone, dnswire.MustName("ex.test")))
	srv := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	benchHandleUnique(b, srv, uniqueQueryWire(b, "sub.ex.test"), true)
}

// BenchmarkHandleUDPBatch32 measures one full 32-packet batch through the
// recvmmsg serving path — handle + stage for every slot — with the kernel
// out of the loop (packets loaded once by loadBatch, no Flush). One op is
// 32 queries; divide ns/op by 32 to compare against BenchmarkHandleUDP.
func BenchmarkHandleUDPBatch32(b *testing.B) {
	if !udpbatch.Supported {
		b.Skip("no batched syscalls on this platform")
	}
	const k = 32
	srv := benchServer(b)
	dummy, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Skipf("no loopback sockets: %v", err)
	}
	defer dummy.Close()
	bc, err := udpbatch.New(dummy, k)
	if err != nil {
		b.Fatal(err)
	}
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	loadBatch(b, dummy, bc, k, wire)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if staged := srv.handleBatch(bc, nil, k, sc); staged != k { // warm the hot cache
		b.Fatalf("warmup staged %d of %d", staged, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if staged := srv.handleBatch(bc, nil, k, sc); staged != k {
			b.Fatalf("staged %d of %d", staged, k)
		}
	}
}

// viewFillHosts is the name universe of BenchmarkHandleUDPViewFill, and
// viewFillCache the hot-cache bound it overflows.
const (
	viewFillHosts = 4096
	viewFillCache = 64
)

// BenchmarkHandleUDPViewFill measures the view tier answering an existing
// name the hot cache has not seen and filling the reply into a full cache:
// every iteration asks the next of viewFillHosts names, so nearly every
// fill recycles a slot. The warm-up pass fills the cache and grows the
// slots' buffers; after it, 0 allocs/op.
func BenchmarkHandleUDPViewFill(b *testing.B) {
	var zoneText strings.Builder
	zoneText.WriteString("$ORIGIN fill.test.\n$TTL 300\n@ IN SOA ns1 host ( 1 3600 600 604800 30 )\n@ IN NS ns1\nns1 IN A 198.51.100.1\n")
	wires := make([][]byte, viewFillHosts)
	for i := range wires {
		fmt.Fprintf(&zoneText, "h%04d IN A 192.0.%d.%d\n", i, i>>8, i&0xFF)
		wire, err := dnswire.NewQuery(1, dnswire.MustName(fmt.Sprintf("h%04d.fill.test", i)), dnswire.TypeA).Pack()
		if err != nil {
			b.Fatal(err)
		}
		wires[i] = wire
	}
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(zoneText.String(), dnswire.MustName("fill.test")))
	cfg := DefaultConfig()
	cfg.HotCacheSize = viewFillCache
	srv := New(cfg, nameserver.NewEngine(store), nil)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for _, wire := range wires {
		if srv.handlePacket(wire, benchSrc, false, sc) == nil {
			b.Fatal("no response")
		}
	}
	if n := srv.hotLen(); n != viewFillCache {
		b.Fatalf("warm-up left %d entries, want a full cache of %d", n, viewFillCache)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.handlePacket(wires[i%viewFillHosts], benchSrc, false, sc) == nil {
			b.Fatal("no response")
		}
	}
}

// TestDecodePathAllocs holds the decode path — UnpackInto, AnswerInto and
// AppendTruncateTo on the worker's reused messages — to the allocations it
// cannot shed, for the queries the wire tiers hand it on a real workload:
// ECS-bearing A and ANY for existing hosts, each answered by one record.
// They are the question name's string, and the record the zone decodes
// from its arena with the slice that carries it (1 while zones kept their
// records as objects the answer could share).
func TestDecodePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	srv := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// Alternated, as on a workload: a query without EDNS in between must not
	// cost the next ECS query its reused OPT records.
	wires := [][]byte{
		packQuery(t, "www.ex.test", dnswire.TypeA, withECS),
		packQuery(t, "www.ex.test", dnswire.TypeANY, nil),
	}
	ask := func() {
		for _, wire := range wires {
			if srv.handlePacket(wire, benchSrc, false, sc) == nil {
				t.Fatal("no response")
			}
		}
	}
	ask() // the worker's messages grow their sections once
	if allocs := testing.AllocsPerRun(200, ask) / float64(len(wires)); allocs > 3 {
		t.Errorf("the decode path allocates %.2f per query, want at most 3", allocs)
	}
}
