package netserve

// This file is the self-protective serving layer (§4.2, §4.3 applied to the
// live sockets): the recover() boundary and crash journal that contain a
// query of death, the signature extraction/minimization that quarantines it,
// the self-suspension a monitoring agent (internal/monitor) sets when its
// storm probe says containment is not enough, and the overload degradation
// ladder that sheds load by reputation instead of at the kernel's whim.

import (
	"errors"
	"net"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/qod"
	"akamaidns/internal/simtime"
)

// errQueryOfDeath converts the engine's simulated crash into a real panic so
// the containment boundary exercises the exact recovery path a latent
// parsing bug would (§4.2.4: "a query of death which crashes the
// nameserver").
var errQueryOfDeath = errors.New("netserve: query of death (engine crashed)")

// containPanic is the crash handler behind the recover boundary: it counts
// the panic (the storm probe's input), synchronously quarantines the
// provisional exact signature of the packet in hand (so this worker — and
// every other, since the quarantine is server-global — refuses the pattern
// before touching it again: at most one crash per worker per pattern), and
// kicks off the asynchronous minimization that generalizes the signature.
func (s *Server) containPanic(r any, wire []byte, j *qod.Journal) {
	s.Metrics.Panics.Add(1)
	v, ok := dnswire.ParseQueryView(wire)
	if !ok {
		// Non-canonical shape: no signature to pin. The panic is still
		// contained and counted; a storm of these fails the storm probe.
		return
	}
	provisional := nameserver.ExactSignature(v.QnameWire(wire), v.QType, v.Flags)
	if _, fresh := s.qodGuard.Add(provisional, s.qodNow()); !fresh {
		return // known pattern re-struck (e.g. a probation probe crashed again)
	}
	culprit := append([]byte(nil), wire...)
	var recent [][]byte
	if j != nil {
		recent = j.Snapshot()
	}
	// Single-flight: one minimizer at a time; a pattern that arrives while
	// another is being minimized keeps its provisional exact signature,
	// which is correct, just narrower.
	if s.minimizing.CompareAndSwap(false, true) {
		go s.refineSignature(provisional, culprit, recent)
	}
}

// refineSignature replays the crash off-path to minimize the quarantined
// signature through the engine's shared minimizer (Engine.MinimizeQoD).
// Runs in a throwaway goroutine under its own recover boundary — it handles
// poison by design.
func (s *Server) refineSignature(provisional qod.Signature, culprit []byte, recent [][]byte) {
	defer s.minimizing.Store(false)
	defer func() { recover() }() // replaying poison; nothing may escape

	// Minimize the packet in hand if it reproduces the crash; if not (the
	// panic came from elsewhere mid-handler), hunt through the journal
	// snapshot, newest first. A panic no recorded query reproduces is not
	// query-triggered and keeps its provisional signature.
	for _, w := range append([][]byte{culprit}, recent...) {
		q, err := dnswire.Unpack(w)
		if err != nil {
			continue
		}
		if sig, crashed := s.Engine.MinimizeQoD(q); crashed {
			s.qodGuard.Replace(provisional, sig)
			return
		}
	}
}

// refusedFor builds a REFUSED reply directly as wire bytes for a quarantined
// or shed query: header echoed with QR set, AA/TC/RA cleared,
// RCODE=REFUSED, and only the question section retained (qlen is the
// question's wire length, qname plus the 4 type/class octets). Packets too
// short to carry the question report nil.
func refusedFor(wire []byte, qlen int, out []byte) []byte {
	if len(wire) < 12+qlen {
		return nil
	}
	out = append(out,
		wire[0], wire[1], // ID
		0x80|wire[2]&0x79,          // QR=1, opcode and RD echoed, AA/TC clear
		byte(dnswire.RCodeRefused), // RA/Z clear, RCODE=REFUSED
		0, 1, 0, 0, 0, 0, 0, 0)     // one question, nothing else
	return append(out, wire[12:12+qlen]...)
}

// questionLen measures the first question of a packet — the name starting
// at octet 12 (plain labels, optionally ended by a compression pointer) plus
// the 4 type/class octets — so refusedFor can echo it for a query no tier
// holds a QueryView of. A name that runs off the packet reports the packet
// length, which refusedFor rejects.
func questionLen(wire []byte) int {
	off := 12
	for off < len(wire) {
		c := int(wire[off])
		switch {
		case c == 0:
			return off + 1 + 4 - 12
		case c >= 0xC0:
			return off + 2 + 4 - 12
		}
		off += 1 + c
	}
	return len(wire)
}

// Healthy is the /healthz predicate: false while draining or self-suspended,
// so the load balancer (or the monitoring agent that would withdraw the BGP
// route) steers traffic away.
func (s *Server) Healthy() bool {
	return !s.closed.Load() && !s.draining.Load() && !s.suspended.Load()
}

// SetSuspended implements monitor.Suspender: while suspended the server
// reports unhealthy (503 on /healthz, the anycast withdrawal upstream), its
// UDP workers read and discard, and each TCP connection is shed at its next
// read. Only the monitoring agent calls it.
func (s *Server) SetSuspended(_ simtime.Time, suspended bool) { s.suspended.Store(suspended) }

// Suspended implements monitor.Suspender.
func (s *Server) Suspended() bool { return s.suspended.Load() }

// CheckStaleness implements monitor.Suspender. It reports false: the socket
// server tracks no input ages (zones arrive by load, transfer or the
// control plane, none of which feeds a staleness clock yet), so it never
// suspends for staleness.
func (s *Server) CheckStaleness(simtime.Time) bool { return false }

// StormProbe returns the server's health test for its monitoring agent: it
// fails when the panics contained, or the packets found undecodable, since
// its last run reach their storm threshold (qod.StormPanics,
// qod.StormMalformed). The probe keeps its own window, so each agent takes
// its own.
func (s *Server) StormProbe() monitor.Probe {
	w := qod.NewStormWindow(s.Metrics.Panics.Load(), s.Metrics.DecodeErrors.Load())
	return monitor.Probe{Name: "storm", Run: func(simtime.Time) error {
		return w.Check(s.Metrics.Panics.Load(), s.Metrics.DecodeErrors.Load())
	}}
}

// Quarantine exposes the query-of-death quarantine for the snapshot endpoint
// and drills.
func (s *Server) Quarantine() *qod.Quarantine { return s.qodGuard }

// OverloadLevel reports the current degradation-ladder position.
func (s *Server) OverloadLevel() int {
	if s.ladder == nil {
		return qod.LevelFull
	}
	return s.ladder.Level()
}

// suspendedOrDraining is the per-read gate a TCP connection consults.
func (s *Server) suspendedOrDraining() bool {
	return s.draining.Load() || s.suspended.Load()
}

// trackConn records (or forgets) an open TCP connection so Drain can
// force-close stragglers after the grace period.
func (s *Server) trackConn(c net.Conn, open bool) {
	s.connMu.Lock()
	if open {
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	s.connMu.Unlock()
}

// Drain gracefully stops the server: health flips to 503 immediately, the
// TCP listener closes, UDP readers are woken and retired, and in-flight
// handlers get up to timeout to finish before remaining TCP connections are
// force-closed. Reports whether everything finished within the grace
// period. Safe to call once; Close after Drain is a no-op.
func (s *Server) Drain(timeout time.Duration) bool {
	if !s.closed.CompareAndSwap(false, true) {
		return true
	}
	s.draining.Store(true)
	if s.tcp != nil {
		s.tcp.Close()
	}
	// Wake blocked UDP readers: an expired deadline turns the blocking read
	// into an immediate error and the worker retires.
	for _, c := range s.udps {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	clean := true
	select {
	case <-done:
	case <-time.After(timeout):
		clean = false
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
	closeAll(s.udps)
	return clean
}

// instrumentProtection registers the protection layer's metric series.
func (s *Server) instrumentProtection(reg *obs.Registry) {
	s.Metrics.Panics = reg.Counter(obs.MetricPanicsTotal,
		"Handler panics contained by the recover boundary.")
	s.Metrics.QoDRefused = reg.Counter(obs.MetricQoDRefusedTotal,
		"Queries refused pre-decode by the query-of-death quarantine.")
	s.Metrics.TCPRejected = reg.Counter(obs.MetricTCPRejectedTotal,
		"TCP connections rejected at the concurrent-connection cap.")
	helpShed := "Queries shed by the overload degradation ladder, by level."
	for _, lv := range []int{qod.LevelDegraded, qod.LevelCleanOnly, qod.LevelSaturated} {
		s.shed[lv] = reg.Counter(obs.MetricShedTotal, helpShed, "level", qod.LevelName(lv))
	}
	reg.GaugeFunc(obs.MetricQuarantineEntries,
		"Signatures currently quarantined.",
		func() float64 { return float64(s.qodGuard.Len()) })
	reg.CounterFunc(obs.MetricQuarantinedTotal,
		"Distinct query-of-death signatures ever quarantined.",
		func() float64 { return float64(s.qodGuard.Admitted()) })
	reg.GaugeFunc(obs.MetricSuspended,
		"1 while the monitoring agent holds the server in self-suspension.",
		func() float64 {
			if s.suspended.Load() {
				return 1
			}
			return 0
		})
	if s.ladder != nil {
		reg.GaugeFunc(obs.MetricInflightHandlers,
			"Handlers currently in flight (overload ladder occupancy).",
			func() float64 { return float64(s.ladder.Inflight()) })
		reg.GaugeFunc(obs.MetricOverloadLevel,
			"Current degradation-ladder level (0 full .. 3 saturated).",
			func() float64 { return float64(s.ladder.Level()) })
	}
}
