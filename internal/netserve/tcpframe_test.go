package netserve

import (
	"bytes"
	"net"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
)

// dialTCP opens a raw client connection to the server's TCP listener.
func dialTCP(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", srv.TCPAddrActual(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// queryOn runs one framed query/response round trip on an open connection.
func queryOn(t *testing.T, conn net.Conn, id uint16) (*dnswire.Message, error) {
	t.Helper()
	q := dnswire.NewQuery(id, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, wire); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	frame, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	return dnswire.Unpack(frame)
}

// expectClosed asserts the server ends the connection within the deadline.
func expectClosed(t *testing.T, conn net.Conn, within time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(within))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection open")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection not closed within %s", within)
	}
}

// TestTCPZeroLengthFrame: a zero length prefix is a protocol violation; the
// connection is dropped, and the server keeps serving new connections.
func TestTCPZeroLengthFrame(t *testing.T) {
	srv := startServer(t, nil)
	conn := dialTCP(t, srv)
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, 2*time.Second)
	if resp, err := queryOn(t, dialTCP(t, srv), 1); err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("server degraded after zero-length frame: resp=%v err=%v", resp, err)
	}
}

// TestTCPResponseNotAnswered: a message with the QR bit set — a zone
// transfer request included — gets no frame, so the first frame back on the
// connection answers the next query.
func TestTCPResponseNotAnswered(t *testing.T) {
	srv := startServer(t, nil)
	conn := dialTCP(t, srv)
	qr := packQuery(t, "ex.test", dnswire.TypeAXFR, func(q *dnswire.Message) { q.Response = true })
	if err := writeFrame(conn, qr); err != nil {
		t.Fatal(err)
	}
	if resp, err := queryOn(t, conn, 2); err != nil || resp.ID != 2 {
		t.Fatalf("first frame after a QR-set AXFR: %v %v, want the answer to query 2", resp, err)
	}
}

// TestTCPTruncatedLengthPrefix: half a length prefix then silence; the
// per-message read deadline cuts the connection rather than pinning a
// handler goroutine forever.
func TestTCPTruncatedLengthPrefix(t *testing.T) {
	srv := startServerCfg(t, DefaultConfig(), nil, func(s *Server) { s.readTimeout = 200 * time.Millisecond })
	conn := dialTCP(t, srv)
	if _, err := conn.Write([]byte{0x00}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, 2*time.Second)
}

// TestTCPOversizedDeclaredLength: the prefix promises 65535 bytes that never
// arrive; the read deadline bounds how long the server waits for them.
func TestTCPOversizedDeclaredLength(t *testing.T) {
	srv := startServerCfg(t, DefaultConfig(), nil, func(s *Server) { s.readTimeout = 200 * time.Millisecond })
	conn := dialTCP(t, srv)
	header := append([]byte{0xFF, 0xFF}, make([]byte, 32)...)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, 2*time.Second)
	if resp, err := queryOn(t, dialTCP(t, srv), 2); err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("server degraded after oversized frame: resp=%v err=%v", resp, err)
	}
}

// TestTCPMidFrameDisconnect: the peer vanishes mid-frame; the handler exits
// cleanly and the listener keeps accepting.
func TestTCPMidFrameDisconnect(t *testing.T) {
	srv := startServer(t, nil)
	conn := dialTCP(t, srv)
	if _, err := conn.Write([]byte{0x00, 0x64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A fresh connection must serve normally right after.
	if resp, err := queryOn(t, dialTCP(t, srv), 3); err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("server degraded after mid-frame disconnect: resp=%v err=%v", resp, err)
	}
}

// TestTCPConnCap: connections beyond the connection cap are shed on accept; slots
// free when holders disconnect.
func TestTCPConnCap(t *testing.T) {
	srv := startServerCfg(t, DefaultConfig(), nil, func(s *Server) { s.maxTCPConns = 2 })
	// Two holders prove they occupy slots by completing a query each.
	a := dialTCP(t, srv)
	if _, err := queryOn(t, a, 1); err != nil {
		t.Fatal(err)
	}
	b := dialTCP(t, srv)
	if _, err := queryOn(t, b, 2); err != nil {
		t.Fatal(err)
	}
	// The third connection is closed at accept: its query never completes.
	c := dialTCP(t, srv)
	if _, err := queryOn(t, c, 3); err == nil {
		t.Fatal("connection beyond the cap was served")
	}
	deadline := time.Now().Add(time.Second)
	for srv.Metrics.TCPRejected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejection not counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Releasing a holder frees its slot for a newcomer.
	a.Close()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if resp, err := queryOn(t, dialTCP(t, srv), 4); err == nil && resp.RCode == dnswire.RCodeNoError {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("freed slot never became usable")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPQueriesPerConnBudget: a connection is closed once it has spent its
// per-connection query budget.
func TestTCPQueriesPerConnBudget(t *testing.T) {
	srv := startServerCfg(t, DefaultConfig(), nil, func(s *Server) { s.maxTCPQueries = 3 })
	conn := dialTCP(t, srv)
	for i := uint16(1); i <= 3; i++ {
		resp, err := queryOn(t, conn, i)
		if err != nil || resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("query %d within budget failed: resp=%v err=%v", i, resp, err)
		}
	}
	if _, err := queryOn(t, conn, 4); err == nil {
		t.Fatal("query beyond the per-connection budget was answered")
	}
}

// TestTCPSlowlorisTrickle: a peer trickling one byte per interval cannot hold
// a handler past the per-message deadline — the frame has a time budget, not
// each byte.
func TestTCPSlowlorisTrickle(t *testing.T) {
	srv := startServerCfg(t, DefaultConfig(), nil, func(s *Server) { s.readTimeout = 150 * time.Millisecond })
	conn := dialTCP(t, srv)
	if resp, err := queryOn(t, conn, 1); err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("warmup query failed: resp=%v err=%v", resp, err)
	}
	if _, err := conn.Write([]byte{0x00, 0x40}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cut := false
	for i := 0; i < 40; i++ {
		if _, err := conn.Write([]byte{0x00}); err != nil {
			cut = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !cut {
		// Writes can keep landing in kernel buffers after the remote close on
		// some stacks; the read side settles it.
		expectClosed(t, conn, time.Second)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("trickler held the connection for %s", elapsed)
	}
}

// writeCounter is an io.Writer that counts the Write calls it takes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite: a frame leaves in one Write, length prefix and
// body together, and readFrame reads back exactly the message written.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, size := range []int{1, 512, 65535} {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		var w writeCounter
		if err := writeFrame(&w, msg); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d-byte frame took %d writes", size, w.writes)
		}
		back, err := readFrame(&w.Buffer)
		if err != nil || !bytes.Equal(back, msg) || w.Len() != 0 {
			t.Errorf("%d-byte frame read back as %d bytes (%v), %d left over", size, len(back), err, w.Len())
		}
	}
}
