package netserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/qod"
	"akamaidns/internal/udpbatch"
	"akamaidns/internal/zone"
)

// batchParityZone hosts every answer shape the corpus exercises: cached
// hits, NXDOMAIN misses, delegations with glue, and a wildcard.
const batchParityZone = `
$ORIGIN ex.test.
$TTL 300
@        IN SOA ns1 host ( 7 3600 600 604800 30 )
@        IN NS ns1
ns1      IN A 198.51.100.1
www      IN A 192.0.2.1
mail     IN A 192.0.2.2
txt      IN TXT "batch parity probe"
*.wild   IN A 192.0.2.9
sub      IN NS ns1.sub
sub      IN NS ns2.sub
ns1.sub  IN A 203.0.113.1
ns2.sub  IN A 203.0.113.2
`

// newParityServer builds a server of the given UDP workers with a
// capture-everything flight recorder. No monitoring agent drives it, so no
// storm of malformed packets mid-corpus can suspend it and fork it from its
// socketless twin.
func newParityServer(workers int) *Server {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(batchParityZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	cfg.UDPWorkers = workers
	cfg.Flight = &flight.Config{SampleEvery: 1}
	return New(cfg, nameserver.NewEngine(store), nil)
}

// startParityServer is newParityServer on a live socket.
func startParityServer(t *testing.T, workers int) *Server {
	t.Helper()
	srv := newParityServer(workers)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// parityCorpus builds a deterministic, seeded query mix where every
// packet elicits exactly one response: repeated hits (hot-cache path,
// with and without EDNS), unique NXDOMAINs and delegations (view path),
// wildcard hits, and full-header garbage (FORMERR path). Each wire's
// leading two bytes are its index, so responses map back by ID.
func parityCorpus(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pack := func(id int, name string, qtype dnswire.Type, edns bool) []byte {
		q := dnswire.NewQuery(uint16(id), dnswire.MustName(name), qtype)
		if edns {
			q.Additional = append(q.Additional, dnswire.NewOPT(1232))
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	corpus := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var wire []byte
		switch k := rng.Intn(10); {
		case k < 4: // repeated hits: hot-cache insert then replay
			names := []string{"www.ex.test", "mail.ex.test", "txt.ex.test"}
			wire = pack(i, names[rng.Intn(len(names))], dnswire.TypeA, rng.Intn(2) == 0)
		case k < 6: // unique NXDOMAIN (compiled-view negative answer)
			wire = pack(i, fmt.Sprintf("miss-%04d.ex.test", rng.Intn(10000)), dnswire.TypeA, false)
		case k < 8: // unique delegation (referral + glue)
			wire = pack(i, fmt.Sprintf("d%04d.sub.ex.test", rng.Intn(10000)), dnswire.TypeA, false)
		case k < 9: // wildcard synthesis
			wire = pack(i, fmt.Sprintf("w%03d.wild.ex.test", rng.Intn(1000)), dnswire.TypeA, false)
		default: // full header + garbage body: FORMERR with the ID echoed
			wire = make([]byte, 12+8+rng.Intn(16))
			rng.Read(wire[12:])
			wire[0], wire[1] = byte(i>>8), byte(i)
			wire[2] = 0x00 // QR clear so the server answers
			wire[4], wire[5] = 0, 1
		}
		corpus = append(corpus, wire)
	}
	return corpus
}

// collectResponses fires the corpus at addr in bursts (so the batched
// server actually sees multi-packet recvmmsg returns) and returns the
// response wire for each query, indexed by the ID in its first two
// bytes.
func collectResponses(t *testing.T, addr string, corpus [][]byte, burst int) map[int][]byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := make(map[int][]byte, len(corpus))
	buf := make([]byte, 65535)
	for off := 0; off < len(corpus); off += burst {
		end := off + burst
		if end > len(corpus) {
			end = len(corpus)
		}
		for _, wire := range corpus[off:end] {
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got < end-off; got++ {
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("after %d/%d responses of burst at %d: %v", got, end-off, off, err)
			}
			if n < 2 {
				t.Fatalf("runt response (%d bytes)", n)
			}
			id := int(buf[0])<<8 | int(buf[1])
			if _, dup := out[id]; dup {
				t.Fatalf("duplicate response for id %d", id)
			}
			out[id] = append([]byte(nil), buf[:n]...)
		}
	}
	return out
}

// verdictCounts tallies the flight recorder's records by verdict.
func verdictCounts(s *Server) map[flight.Verdict]int {
	counts := make(map[flight.Verdict]int)
	for _, rec := range s.flight.Snapshot(0) {
		counts[rec.Verdict]++
	}
	return counts
}

// TestBatchParity is the read-loop differential: the same seeded corpus
// served by the batched socket loop (recvmmsg arena, staging, sendmmsg
// flush) must produce the bytes a socketless twin fed in order through
// handlePacket produces, and the answer the decode path (handleSlow) gives
// every query. The loop may add nothing and lose nothing: every
// cache-eligible query is one hit or one miss of some worker's hot cache.
// With one worker the socket side stays in corpus order, so hot-cache
// graduation happens at the same query on both servers and the flight
// verdicts and serving-tier counters agree too; with four, each worker
// answers from a cache of its own.
func TestBatchParity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testBatchParity(t, workers) })
	}
}

func testBatchParity(t *testing.T, workers int) {
	const queries = 384
	corpus := parityCorpus(t, 7, queries)
	served := startParityServer(t, workers)
	twin, slow := newParityServer(1), newParityServer(1)
	respA := collectResponses(t, served.UDPAddrActual(), corpus, 32)
	respB := make(map[int][]byte, queries)
	src := netip.MustParseAddrPort("127.0.0.1:5353")
	sc, ssc := scratchPool.Get().(*scratch), scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	defer scratchPool.Put(ssc)
	eligible := uint64(0)
	for id, wire := range corpus {
		if out := twin.handlePacket(wire, src, false, sc); out != nil {
			respB[id] = append([]byte(nil), out...)
		}
		if v, ok := dnswire.ParseQueryView(wire); ok && !v.Response() && clientAgnostic(v) {
			if _, _, ok := sizeClassUDP(v); ok {
				eligible++
			}
		}
	}
	if len(respA) != queries || len(respB) != queries {
		t.Fatalf("response counts: socket %d, twin %d, want %d", len(respA), len(respB), queries)
	}
	for id := 0; id < queries; id++ {
		if !bytes.Equal(respA[id], respB[id]) {
			t.Fatalf("response %d differs:\n  socket: %x\n  twin:   %x\n  query:  %x",
				id, respA[id], respB[id], corpus[id])
		}
		ref := slow.handleSlow(corpus[id], src, false, ssc, qod.LevelFull)
		if got, want := messageSummary(t, respA[id]), messageSummary(t, ref); got != want {
			t.Fatalf("response %d differs from the decode path's:\n  socket: %s\n  decode: %s", id, got, want)
		}
	}
	if hits, misses, _, _ := served.hotTotals(); hits+misses != eligible {
		t.Errorf("hot caches counted %d hits + %d misses for %d cache-eligible queries", hits, misses, eligible)
	}
	if c := served.batchSize.Count(); c == 0 {
		t.Error("socket server recorded no batch-size observations")
	}
	if got := served.Metrics.UDPQueries.Load(); got != queries { // counted by the loop itself
		t.Errorf("metric udp_queries: socket %d, want %d", got, queries)
	}
	if workers > 1 {
		return
	}
	va, vb := verdictCounts(served), verdictCounts(twin)
	for _, v := range []flight.Verdict{flight.VerdictServed, flight.VerdictCached,
		flight.VerdictView, flight.VerdictError, flight.VerdictShed} {
		if va[v] != vb[v] {
			t.Errorf("verdict %s: socket %d, twin %d", v, va[v], vb[v])
		}
	}
	type pair struct {
		name string
		a, b uint64
	}
	for _, p := range []pair{
		{"decode_errors", served.Metrics.DecodeErrors.Load(), twin.Metrics.DecodeErrors.Load()},
		{"view_served", served.Metrics.ViewServed.Load(), twin.Metrics.ViewServed.Load()},
		{"write_errors", served.Metrics.WriteErrors.Load(), twin.Metrics.WriteErrors.Load()},
		{"send_shortfall", served.Metrics.SendShortfall.Load(), twin.Metrics.SendShortfall.Load()},
	} {
		if p.a != p.b {
			t.Errorf("metric %s: socket %d, twin %d", p.name, p.a, p.b)
		}
	}
}

// loadBatch fills the first k receive slots of bc, which wraps dst, with
// copies of wire (IDs 0..k-1): it sends them to dst over loopback and
// reads them back in one ReadBatch. The slots then stay loaded, so a
// caller can run handleBatch over them again and again with no kernel in
// the loop. A batch the kernel hands over in parts is drained and sent
// again.
func loadBatch(tb testing.TB, dst *net.UDPConn, bc *udpbatch.Conn, k int, wire []byte) {
	tb.Helper()
	src, err := net.DialUDP("udp", nil, dst.LocalAddr().(*net.UDPAddr))
	if err != nil {
		tb.Skipf("no loopback sockets: %v", err)
	}
	defer src.Close()
	defer dst.SetReadDeadline(time.Time{})
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < k; i++ {
			wire[0], wire[1] = byte(i>>8), byte(i)
			if _, err := src.Write(wire); err != nil {
				tb.Fatal(err)
			}
		}
		dst.SetReadDeadline(time.Now().Add(time.Second))
		n, err := bc.ReadBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if n == k {
			return
		}
		dst.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		for {
			if _, err := bc.ReadBatch(); err != nil {
				break
			}
		}
	}
	tb.Fatalf("no ReadBatch returned all %d datagrams at once", k)
}

// TestBatchHandleZeroAlloc pins the 0 allocs/op property of the batched
// processing path: handle + stage across a full batch, hot cache and
// flight recorder armed, without a kernel in the loop.
func TestBatchHandleZeroAlloc(t *testing.T) {
	if !udpbatch.Supported {
		t.Skip("no batched syscalls on this platform")
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const k = 32
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(batchParityZone, dnswire.MustName("ex.test")))
	srv := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	dummy, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback sockets: %v", err)
	}
	defer dummy.Close()
	bc, err := udpbatch.New(dummy, k)
	if err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	loadBatch(t, dummy, bc, k, wire)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// Warm: first pass populates the hot cache (which allocates once).
	if staged := srv.handleBatch(bc, nil, k, sc); staged != k {
		t.Fatalf("warmup staged %d of %d", staged, k)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if staged := srv.handleBatch(bc, nil, k, sc); staged != k {
			t.Fatalf("staged %d of %d", staged, k)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched handle path allocates: %.2f allocs per %d-packet batch", allocs, k)
	}
}

// TestBatchDrainWakes proves Drain's deadline poke interrupts a blocked
// batch read: the workers must retire within the grace period.
func TestBatchDrainWakes(t *testing.T) {
	srv := startParityServer(t, 1)
	// One query proves the read loop is live before the drain.
	q := dnswire.NewQuery(9, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), q, false, time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if !srv.Drain(3 * time.Second) {
		t.Fatal("drain deadline hit: the blocked reader did not wake")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("drain took %v; the deadline poke should wake the read immediately", waited)
	}
}

// TestUDPGroupSamePort asserts the SO_REUSEPORT group invariant that
// UDPAddrActual's index-0 answer relies on.
func TestUDPGroupSamePort(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(batchParityZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.TCPAddr = ""
	cfg.UDPWorkers = 4
	srv := New(cfg, nameserver.NewEngine(store), nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if len(srv.udps) == 0 {
		t.Fatal("no UDP sockets")
	}
	want := srv.udps[0].LocalAddr().(*net.UDPAddr).Port
	for i, c := range srv.udps {
		if got := c.LocalAddr().(*net.UDPAddr).Port; got != want {
			t.Fatalf("socket %d bound port %d, want %d", i, got, want)
		}
	}
	if srv.UDPAddrActual() != srv.udps[0].LocalAddr().String() {
		t.Fatal("UDPAddrActual is not the canonical index-0 address")
	}
}
