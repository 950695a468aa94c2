package netserve

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/zone"
)

const serveZone = `
$ORIGIN ex.test.
$TTL 300
@    IN SOA ns1 host ( 7 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
big  IN TXT "0123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789"
big  IN TXT "a123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789"
big  IN TXT "b123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789"
big  IN TXT "c123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789"
big  IN TXT "d123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789"
`

func startServer(t *testing.T, pipe *filters.Pipeline) *Server {
	t.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	srv := New(DefaultConfig(), nameserver.NewEngine(store), pipe)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestUDPQuery(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 || !resp.Authoritative {
		t.Fatalf("resp = %v", resp)
	}
	if srv.Metrics.UDPQueries.Load() != 1 {
		t.Fatal("metrics not counted")
	}
}

func TestTCPQuery(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(2, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	resp, err := Exchange(srv.TCPAddrActual(), q, true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestUDPTruncationAndTCPFallback(t *testing.T) {
	srv := startServer(t, nil)
	// 5 TXT strings of 100 bytes: > 512 plain-UDP limit.
	q := dnswire.NewQuery(3, dnswire.MustName("big.ex.test"), dnswire.TypeTXT)
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("oversized UDP answer not truncated")
	}
	// Same over TCP: full.
	respT, err := Exchange(srv.TCPAddrActual(), q, true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if respT.Truncated || len(respT.Answers) != 5 {
		t.Fatalf("TCP answers = %d truncated=%v", len(respT.Answers), respT.Truncated)
	}
	if srv.Metrics.Truncated.Load() == 0 {
		t.Fatal("truncation not counted")
	}
}

func TestEDNSRaisesUDPLimit(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(4, dnswire.MustName("big.ex.test"), dnswire.TypeTXT)
	q.Additional = append(q.Additional, dnswire.NewOPT(4096))
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 5 {
		t.Fatalf("EDNS UDP answers = %d truncated=%v", len(resp.Answers), resp.Truncated)
	}
	if resp.OPT() == nil {
		t.Fatal("response missing OPT")
	}
}

func TestNXDomainOverSockets(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(5, dnswire.MustName("nope.ex.test"), dnswire.TypeA)
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain || len(resp.Authority) != 1 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestRefusedForForeignZone(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(6, dnswire.MustName("other.zone"), dnswire.TypeA)
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v", resp.RCode)
	}
}

func TestMalformedGetsFormErr(t *testing.T) {
	srv := startServer(t, nil)
	conn, err := net.Dial("udp", srv.UDPAddrActual())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 12-byte header claiming one question but no question bytes.
	junk := []byte{0xAB, 0xCD, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	conn.Write(junk)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m.RCode != dnswire.RCodeFormErr || m.ID != 0xABCD {
		t.Fatalf("m = %v", m)
	}
}

func TestReflectionJunkDropped(t *testing.T) {
	srv := startServer(t, nil)
	// A response packet (QR=1) must be dropped silently (volumetric
	// reflection defense: the QR bit distinguishes it, §4.3.4 class 1).
	resp := dnswire.NewResponse(dnswire.NewQuery(9, dnswire.MustName("www.ex.test"), dnswire.TypeA))
	wire, _ := resp.Pack()
	conn, _ := net.Dial("udp", srv.UDPAddrActual())
	defer conn.Close()
	conn.Write(wire)
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 512)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a QR=1 packet")
	}
}

func TestPipelineDiscardOverSockets(t *testing.T) {
	// A pipeline scoring everything at Smax drops all queries.
	hostile := filters.NewAllowlist()
	hostile.SetActive(true)
	hostile.Penalty = 1000
	pipe := filters.NewPipeline(hostile)
	srv := startServer(t, pipe)
	q := dnswire.NewQuery(7, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), q, false, 300*time.Millisecond); err == nil {
		t.Fatal("discarded query got an answer")
	}
	if srv.Metrics.Discarded.Load() == 0 {
		t.Fatal("discard not counted")
	}
}

func TestQoDOverSocketsTimesOut(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(8, dnswire.MustName(dnswire.QoDMarkerLabel+".ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), q, false, 300*time.Millisecond); err == nil {
		t.Fatal("QoD got an answer")
	}
}

func TestAXFR(t *testing.T) {
	srv := startServer(t, nil)
	recs, err := Transfer(srv.TCPAddrActual(), dnswire.MustName("ex.test"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := recs[0].(*dnswire.SOA); !ok {
		t.Fatal("transfer does not start with SOA")
	}
	if _, ok := recs[len(recs)-1].(*dnswire.SOA); !ok {
		t.Fatal("transfer does not end with SOA")
	}
	// Rebuild the zone from the stream and read it back.
	z, err := zone.FromTransfer(dnswire.MustName("ex.test"), recs)
	if err != nil {
		t.Fatal(err)
	}
	if z.Serial() != 7 {
		t.Fatal("transferred serial wrong")
	}
	if srv.Metrics.Transfers.Load() != 1 {
		t.Fatal("transfer not counted")
	}
}

func TestAXFRRefusedWhenDisabled(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.AllowTransfer = false
	srv := New(cfg, nameserver.NewEngine(store), nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Transfer(srv.TCPAddrActual(), dnswire.MustName("ex.test"), time.Second); err == nil {
		t.Fatal("transfer succeeded while disabled")
	}
}

func TestLoadZonesInto(t *testing.T) {
	store := zone.NewStore()
	open := func(path string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(serveZone)), nil
	}
	if err := LoadZonesInto(store, []string{"ex.test=whatever.zone"}, open); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatal("zone not loaded")
	}
	if err := LoadZonesInto(store, []string{"missing-eq"}, open); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := LoadZonesInto(store, []string{"bad name!=x"}, open); err == nil {
		t.Fatal("bad origin accepted")
	}
}

func TestConcurrentUDPClients(t *testing.T) {
	srv := startServer(t, nil)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				q := dnswire.NewQuery(uint16(g*100+i), dnswire.MustName("www.ex.test"), dnswire.TypeA)
				if _, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Metrics.UDPQueries.Load() != 16*50 {
		t.Fatalf("served %d", srv.Metrics.UDPQueries.Load())
	}
}
