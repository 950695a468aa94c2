// The UDP read loop. Each worker drains up to udpBatch datagrams per
// kernel crossing into a preallocated arena (internal/udpbatch:
// recvmmsg/sendmmsg on linux/amd64 and linux/arm64, one datagram per
// syscall elsewhere behind the same API), runs every packet through
// handlePacket — hot cache, compiled views, slow path, quarantine,
// ladder, flight recorder — and flushes the accumulated
// responses with one send. Steady state allocates nothing.

package netserve

import (
	"net"

	"akamaidns/internal/udpbatch"
)

// udpBatch is K, the datagrams moved per UDP syscall. 32 amortizes the
// kernel crossing to ~3% of its per-packet cost while keeping the
// per-worker arena (two 4 KiB slots per packet) small. A datagram larger
// than an arena slot is dropped rather than served clipped — far beyond
// any real DNS query.
const udpBatch = 32

// serveUDP is one UDP worker: it returns on read error (socket closed, or
// deadline-poked by Drain — udpbatch.ReadBatch honors SetReadDeadline),
// counts every packet, and reads-and-discards whole batches while the
// server is self-suspended.
func (s *Server) serveUDP(bc *udpbatch.Conn, conn *net.UDPConn) {
	defer s.wg.Done()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for {
		n, err := bc.ReadBatch()
		if err != nil {
			return // closed (or deadline-poked by Drain)
		}
		s.Metrics.UDPQueries.Add(uint64(n))
		s.batchSize.Observe(float64(n))
		if s.suspended.Load() {
			// Live self-suspension: traffic is read and discarded unanswered
			// — the socket-level emulation of withdrawing the anycast route
			// (§4.2.1). Reading (rather than pausing) keeps the kernel
			// buffer from serving stale packets on resume.
			continue
		}
		if staged := s.handleBatch(bc, conn, n, sc); staged > 0 {
			s.flushBatch(bc, staged)
		}
	}
}

// handleBatch serves the n received packets of the last ReadBatch and
// stages their responses, returning how many are staged. Responses too
// large for an arena slot (possible only from the slow path, when a
// client advertises a >4 KiB EDNS payload and the answer actually fills
// it) are written through conn unbatched; conn may be nil in benchmarks,
// which never construct such answers.
func (s *Server) handleBatch(bc *udpbatch.Conn, conn *net.UDPConn, n int, sc *scratch) int {
	staged := 0
	for i := 0; i < n; i++ {
		pkt := bc.Packet(i)
		if pkt == nil {
			continue // kernel-truncated jumbo datagram: never serve clipped bytes
		}
		resp := s.handlePacket(pkt, bc.Src(i), false, sc)
		if resp == nil {
			continue
		}
		if bc.Stage(staged, resp, i) {
			staged++
			continue
		}
		if conn != nil {
			if _, err := conn.WriteToUDPAddrPort(resp, bc.Src(i)); err != nil {
				s.Metrics.WriteErrors.Add(1)
			}
		}
	}
	return staged
}

// flushBatch sends the staged responses, accounting each datagram the
// kernel would not take — once per datagram, not per batch — as both a
// write error and a send shortfall.
func (s *Server) flushBatch(bc *udpbatch.Conn, staged int) {
	if _, dropped, _ := bc.Flush(staged); dropped > 0 {
		s.Metrics.WriteErrors.Add(uint64(dropped))
		s.Metrics.SendShortfall.Add(uint64(dropped))
	}
}
