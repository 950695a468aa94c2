package netserve

// This file is the self-protective serving layer (§4.2, §4.3 applied to the
// live sockets): the recover() boundary and crash journal that contain a
// query of death, the signature extraction/minimization that quarantines it,
// the watchdog that flips the machine into live self-suspension when
// containment is not enough, and the overload degradation ladder that sheds
// load by reputation instead of at the kernel's whim.

import (
	"errors"
	"net"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/qod"
)

// errQueryOfDeath converts the engine's simulated crash into a real panic so
// the containment boundary exercises the exact recovery path a latent
// parsing bug would (§4.2.4: "a query of death which crashes the
// nameserver").
var errQueryOfDeath = errors.New("netserve: query of death (engine crashed)")

// containPanic is the crash handler behind the recover boundary: it counts
// the panic, feeds the watchdog, synchronously quarantines the provisional
// exact signature of the packet in hand (so this worker — and every other,
// since the quarantine is server-global — refuses the pattern before
// touching it again: at most one crash per worker per pattern), and kicks
// off the asynchronous minimization that generalizes the signature.
func (s *Server) containPanic(r any, wire []byte, j *qod.Journal) {
	s.Metrics.Panics.Add(1)
	now := time.Now()
	if s.watchdog != nil {
		s.watchdog.RecordPanic(now)
	}
	v, ok := dnswire.ParseQueryView(wire)
	if !ok {
		// Non-canonical shape: no signature to pin. The panic is still
		// contained and counted; a storm of these trips the watchdog.
		return
	}
	provisional := nameserver.ExactSignature(v.QnameWire(wire), v.QType, v.Flags)
	if _, fresh := s.qodGuard.Add(provisional, now); !fresh {
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
	if s.closed.Load() || s.draining.Load() {
		return false
	}
	if s.watchdog != nil && s.watchdog.Engaged() && s.watchdog.Suspended(time.Now()) {
		return false
	}
	return true
}

// Watchdog exposes the live watchdog (nil when suspension is disabled).
func (s *Server) Watchdog() *qod.Watchdog { return s.watchdog }

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

// suspendedOrDraining is the per-connection/per-read gate the TCP side and
// the UDP read loops consult.
func (s *Server) suspendedOrDraining() bool {
	if s.draining.Load() {
		return true
	}
	return s.watchdog != nil && s.watchdog.Engaged() && s.watchdog.Suspended(time.Now())
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
	if s.watchdog != nil {
		help := "Watchdog suspension trips, by tripwire."
		for _, reason := range []string{qod.TripPanic, qod.TripMalformed} {
			reason := reason
			reg.CounterFunc(obs.MetricWatchdogTripsTotal, help,
				func() float64 { return float64(s.watchdog.Trips(reason)) },
				"reason", reason)
		}
		reg.GaugeFunc(obs.MetricSuspended,
			"1 while the watchdog holds the server in live self-suspension.",
			func() float64 {
				if s.watchdog.Suspended(time.Now()) {
					return 1
				}
				return 0
			})
	}
	if s.ladder != nil {
		reg.GaugeFunc(obs.MetricInflightHandlers,
			"Handlers currently in flight (overload ladder occupancy).",
			func() float64 { return float64(s.ladder.Inflight()) })
		reg.GaugeFunc(obs.MetricOverloadLevel,
			"Current degradation-ladder level (0 full .. 3 saturated).",
			func() float64 { return float64(s.ladder.Level()) })
	}
}
