package netserve

import (
	"net/netip"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/zone"
)

// ixfrRig: primary with history enabled + a secondary replica.
func ixfrRig(t *testing.T) (*Server, *zone.Store, *Secondary) {
	t.Helper()
	priStore := zone.NewStore()
	z := zone.MustParseMaster(serveZone, dnswire.MustName("ex.test"))
	priStore.Put(z)
	primary := New(DefaultConfig(), nameserver.NewEngine(priStore), nil)
	primary.History = zone.NewHistory(8)
	primary.History.Record(z)
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	secStore := zone.NewStore()
	sec := NewSecondary(secStore, dnswire.MustName("ex.test"), primary.TCPAddrActual())
	return primary, priStore, sec
}

// hostA is an A record for host.
func hostA(host string) *dnswire.A {
	return &dnswire.A{
		RRHeader: dnswire.RRHeader{Name: dnswire.MustName(host), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
		Addr:     netip.MustParseAddr("192.0.2.77"),
	}
}

// bump adds a record and advances the serial, recording history.
func bump(t *testing.T, primary *Server, store *zone.Store, serial uint32, host string) {
	t.Helper()
	z := store.Get(dnswire.MustName("ex.test"))
	z.Add(hostA(host))
	z.SetSerial(serial)
	primary.History.Record(z)
}

func TestIXFRUpToDate(t *testing.T) {
	primary, _, _ := ixfrRig(t)
	res, err := TransferIncremental(primary.TCPAddrActual(), dnswire.MustName("ex.test"), 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UpToDate {
		t.Fatalf("res = %+v, want up-to-date", res)
	}
}

func TestIXFRIncrementalDelta(t *testing.T) {
	primary, store, sec := ixfrRig(t)
	sec.RefreshOnce() // initial AXFR at serial 7
	bump(t, primary, store, 8, "inc1.ex.test")
	res, err := TransferIncremental(primary.TCPAddrActual(), dnswire.MustName("ex.test"), 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil {
		t.Fatalf("res = %+v, want incremental", res)
	}
	if res.Delta.FromSerial != 7 || res.Delta.ToSerial != 8 ||
		len(res.Delta.Added) != 1 || len(res.Delta.Deleted) != 0 {
		t.Fatalf("delta = %+v", res.Delta)
	}
}

// TestIXFRLargeDelta: a delta far larger than one message arrives as a
// Delta spread over many frames, well inside the client's timeout.
func TestIXFRLargeDelta(t *testing.T) {
	const n = 4000
	primary, store, _ := ixfrRig(t)
	origin := dnswire.MustName("ex.test")
	z := store.Get(origin)
	for i := 0; i < n; i++ {
		z.Add(hostA("h" + itoaTest(i) + ".ex.test"))
	}
	z.SetSerial(8)
	primary.History.Record(z)
	start := time.Now()
	res, err := TransferIncremental(primary.TCPAddrActual(), origin, 7, time.Second)
	if err != nil {
		t.Fatalf("after %s: %v", time.Since(start), err)
	}
	if d := res.Delta; d == nil || d.FromSerial != 7 || d.ToSerial != 8 || len(d.Added) != n || len(d.Deleted) != 0 {
		t.Fatalf("res = %+v, want a %d-record delta 7→8", res, n)
	}
	// On the wire the first frame carries one batch, not the whole delta.
	conn := dialTCP(t, primary)
	if err := writeFrame(conn, packQuery(t, "ex.test", dnswire.TypeIXFR, withSerial)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	frame, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := dnswire.Unpack(frame); err != nil || len(m.Answers) != transferBatch {
		t.Fatalf("first frame: %v, want %d records", err, transferBatch)
	}
}

func TestIXFRFallsBackToFullWhenUnretained(t *testing.T) {
	primary, _, _ := ixfrRig(t)
	// A serial the history never saw.
	res, err := TransferIncremental(primary.TCPAddrActual(), dnswire.MustName("ex.test"), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Full == nil {
		t.Fatalf("res = %+v, want full transfer", res)
	}
	if _, ok := res.Full[0].(*dnswire.SOA); !ok {
		t.Fatal("full stream missing leading SOA")
	}
}

func TestSecondaryUsesIncrementals(t *testing.T) {
	primary, store, sec := ixfrRig(t)
	sec.MinInterval = time.Millisecond
	sec.RefreshOnce() // AXFR to serial 7
	if sec.Incrementals != 0 {
		t.Fatal("initial pull counted as incremental")
	}
	for s := uint32(8); s <= 11; s++ {
		bump(t, primary, store, s, "h"+itoaTest(int(s))+".ex.test")
		sec.RefreshOnce()
		if sec.Serial() != s {
			t.Fatalf("secondary at %d, want %d", sec.Serial(), s)
		}
	}
	if sec.Incrementals != 4 {
		t.Fatalf("incrementals = %d, want 4", sec.Incrementals)
	}
	// The replica answers the incremental additions.
	got := sec.Store.Get(dnswire.MustName("ex.test")).View().Lookup(dnswire.MustName("h10.ex.test"), dnswire.TypeA)
	if got.Result != zone.Success {
		t.Fatalf("incrementally-added record missing: %v", got.Result)
	}
}

func itoaTest(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestIXFRRefusedWithoutTransferPermission(t *testing.T) {
	priStore := zone.NewStore()
	priStore.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.AllowTransfer = false
	primary := New(cfg, nameserver.NewEngine(priStore), nil)
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := TransferIncremental(primary.TCPAddrActual(), dnswire.MustName("ex.test"), 7, time.Second); err == nil {
		t.Fatal("IXFR served with transfers disabled")
	}
}

func TestIXFRUnknownZoneRefused(t *testing.T) {
	primary, _, _ := ixfrRig(t)
	if _, err := TransferIncremental(primary.TCPAddrActual(), dnswire.MustName("nope.test"), 1, time.Second); err == nil {
		t.Fatal("IXFR for unknown zone served")
	}
}

func TestIXFRWithDeletions(t *testing.T) {
	primary, store, _ := ixfrRig(t)
	z := store.Get(dnswire.MustName("ex.test"))
	z.Remove(dnswire.MustName("www.ex.test"), dnswire.TypeA)
	z.SetSerial(8)
	primary.History.Record(z)
	res, err := TransferIncremental(primary.TCPAddrActual(), dnswire.MustName("ex.test"), 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil || len(res.Delta.Deleted) != 1 || len(res.Delta.Added) != 0 {
		t.Fatalf("delta = %+v", res.Delta)
	}
	// Apply on a replica built from the old version.
	old := zone.MustParseMaster(serveZone, dnswire.MustName("ex.test"))
	next, err := zone.Apply(old, *res.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.View().Lookup(dnswire.MustName("www.ex.test"), dnswire.TypeA); got.Result == zone.Success {
		t.Fatal("deleted record survived incremental apply")
	}
}
