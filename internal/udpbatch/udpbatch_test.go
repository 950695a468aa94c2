package udpbatch

import (
	"fmt"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"
)

func listen(t *testing.T) *net.UDPConn {
	t.Helper()
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback sockets: %v", err)
	}
	t.Cleanup(func() { uc.Close() })
	return uc
}

// TestBatchRoundTrip stages a full batch from one socket to another and
// reads it back batched, checking payloads and decoded sources.
func TestBatchRoundTrip(t *testing.T) {
	const k = 8
	a, b := listen(t), listen(t)
	ca, err := New(a, k)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := New(b, k)
	if err != nil {
		t.Fatal(err)
	}
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()
	for j := 0; j < k; j++ {
		if !ca.StageAddr(j, []byte(fmt.Sprintf("packet-%d", j)), dst) {
			t.Fatalf("StageAddr(%d) refused", j)
		}
	}
	sent, dropped, err := ca.Flush(k)
	if err != nil || sent != k || dropped != 0 {
		t.Fatalf("Flush = %d sent, %d dropped, %v", sent, dropped, err)
	}
	srcPort := a.LocalAddr().(*net.UDPAddr).AddrPort().Port()
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := map[string]bool{}
	for len(got) < k {
		n, err := cb.ReadBatch()
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d packets: %v", len(got), k, err)
		}
		if Supported && n < 1 {
			t.Fatalf("ReadBatch returned %d", n)
		}
		for i := 0; i < n; i++ {
			got[string(cb.Packet(i))] = true
			src := cb.Src(i)
			if src.Port() != srcPort {
				t.Fatalf("slot %d source %v, want port %d", i, src, srcPort)
			}
			if !src.Addr().Unmap().IsLoopback() {
				t.Fatalf("slot %d source addr %v not loopback", i, src.Addr())
			}
		}
	}
	for j := 0; j < k; j++ {
		if !got[fmt.Sprintf("packet-%d", j)] {
			t.Fatalf("packet-%d never arrived; got %v", j, got)
		}
	}
}

// TestConnectedStage drives the send path of a connected-socket sender
// (the shape bench/gen.go uses) and the reply path via Stage.
func TestConnectedStage(t *testing.T) {
	srv := listen(t)
	cs, err := New(srv, 4)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cc, err := New(cli, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if !cc.StageConnected(j, []byte{byte('a' + j)}) {
			t.Fatal("StageConnected refused")
		}
	}
	if sent, _, err := cc.Flush(2); err != nil || sent != 2 {
		t.Fatalf("client Flush = %d, %v", sent, err)
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	seen := 0
	for seen < 2 {
		n, err := cs.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		// Echo each received payload back via the receive-slot address.
		for i := 0; i < n; i++ {
			if !cs.Stage(i, cs.Packet(i), i) {
				t.Fatal("Stage refused")
			}
		}
		if sent, _, err := cs.Flush(n); err != nil || sent != n {
			t.Fatalf("server Flush = %d, %v", sent, err)
		}
		seen += n
	}
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	back := 0
	for back < 2 {
		n, err := cc.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if p := cc.Packet(i); len(p) != 1 || p[0] < 'a' || p[0] > 'b' {
				t.Fatalf("bad echo %q", p)
			}
		}
		back += n
	}
}

// TestReadDeadlineInterrupts proves a deadline set on the wrapped conn
// wakes a blocked batch read — what Drain relies on to retire workers.
func TestReadDeadlineInterrupts(t *testing.T) {
	uc := listen(t)
	c, err := New(uc, 16)
	if err != nil {
		t.Fatal(err)
	}
	uc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = c.ReadBatch()
	if err == nil {
		t.Fatal("ReadBatch returned without error on an idle socket")
	}
	if !os.IsTimeout(err) {
		t.Fatalf("ReadBatch error %v, want a timeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline took %v to fire", waited)
	}
}

// TestLoadPacket round-trips the synthetic-receive hook used by the
// netserve batch benchmarks.
func TestLoadPacket(t *testing.T) {
	uc := listen(t)
	c, err := New(uc, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("192.0.2.7:5353")
	c.LoadPacket(0, []byte("hello"), src)
	if got := string(c.Packet(0)); got != "hello" {
		t.Fatalf("Packet(0) = %q", got)
	}
	if got := c.Src(0); got != src {
		t.Fatalf("Src(0) = %v, want %v", got, src)
	}
	if Supported {
		src6 := netip.MustParseAddrPort("[2001:db8::1]:53")
		c.LoadPacket(1, []byte("six"), src6)
		if got := c.Src(1); got != src6 {
			t.Fatalf("Src(1) = %v, want %v", got, src6)
		}
	}
}

// TestStageOversize: a payload beyond the slot must be refused, not
// clipped.
func TestStageOversize(t *testing.T) {
	uc := listen(t)
	c, err := New(uc, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, c.slot+1)
	if c.StageAddr(0, big, netip.MustParseAddrPort("127.0.0.1:9")) {
		t.Fatal("oversize StageAddr accepted")
	}
	if c.StageConnected(0, big) {
		t.Fatal("oversize StageConnected accepted")
	}
}

// TestBatchZeroAlloc pins the allocation-free property of the batched
// I/O path itself: stage+flush on the sender, read+decode on the
// receiver.
func TestBatchZeroAlloc(t *testing.T) {
	if !Supported {
		t.Skip("no batched syscalls on this platform")
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const k = 16
	a, b := listen(t), listen(t)
	ca, err := New(a, k)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := New(b, k)
	if err != nil {
		t.Fatal(err)
	}
	dst := b.LocalAddr().(*net.UDPAddr).AddrPort()
	payload := []byte("zero-alloc probe")
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	var sink netip.AddrPort
	allocs := testing.AllocsPerRun(50, func() {
		for j := 0; j < k; j++ {
			ca.StageAddr(j, payload, dst)
		}
		if sent, _, err := ca.Flush(k); err != nil || sent != k {
			t.Fatalf("Flush = %d, %v", sent, err)
		}
		seen := 0
		for seen < k {
			n, err := cb.ReadBatch()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if len(cb.Packet(i)) != len(payload) {
					t.Fatal("short packet")
				}
				sink = cb.Src(i)
			}
			seen += n
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("batched I/O allocates: %.1f allocs per batch", allocs)
	}
}

// TestReadWhileWrite holds the package's concurrency contract under the
// race detector: one goroutine flushes batches through a Conn while
// another blocks in ReadBatch on the same Conn, the load-generator shape.
// A peer socket echoes every datagram back so both directions stay busy.
func TestReadWhileWrite(t *testing.T) {
	const k, rounds = 8, 200
	peer := listen(t)
	uc, err := net.DialUDP("udp", nil, peer.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	c, err := New(uc, k)
	if err != nil {
		t.Fatal(err)
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		buf := make([]byte, 64)
		for {
			n, src, err := peer.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed by the test body
			}
			peer.WriteToUDPAddrPort(buf[:n], src) // best effort: loss only lowers the echo count
		}
	}()
	var received int
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			n, err := c.ReadBatch()
			if err != nil {
				return // deadline-poked once the writer is done
			}
			for i := 0; i < n; i++ {
				if p := c.Packet(i); len(p) != 1 {
					t.Errorf("echoed payload %q, want one byte", p)
				}
			}
			received += n
		}
	}()
	for r := 0; r < rounds; r++ {
		for j := 0; j < k; j++ {
			if !c.StageConnected(j, []byte{byte(r)}) {
				t.Fatal("StageConnected refused")
			}
		}
		if sent, dropped, err := c.Flush(k); sent+dropped != k {
			t.Fatalf("Flush = %d sent, %d dropped, %v", sent, dropped, err)
		}
	}
	// Let the last echoes land, then wake the blocked reader.
	uc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	<-readDone
	peer.Close()
	<-echoDone
	if received == 0 {
		t.Fatal("reader saw no echoes while the writer ran")
	}
}
