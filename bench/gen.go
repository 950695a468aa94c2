package main

// gen.go is the load generator: a closed-loop driver for the measured
// stream (a fixed window of queries in flight on one socket, every response
// validated against the oracle) that also sends, between its batches, the
// open-loop side traffic some workloads add (the attacker's flood, churn
// probes) on a fixed due-time schedule. The generator is sized to the host,
// not the workload: one goroutine, one socket for the measured stream and
// one for the side traffic.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"akamaidns/internal/udpbatch"
)

const (
	// queryTimeout: a response that has not arrived by then is a failed
	// operation.
	queryTimeout = 300 * time.Millisecond
	// closedWindow is the closed-loop in-flight window.
	closedWindow = 64
	// tickPeriod is the background send period; every datagram of a tick
	// is due at the tick's instant.
	tickPeriod = time.Millisecond
	// genBatch bounds datagrams per generator syscall.
	genBatch = 256
)

// genResult is what one measured phase of a driver produced.
type genResult struct {
	elapsed   time.Duration
	attempted uint64
	correct   uint64
	wrong     uint64
	timeouts  uint64
	unmatched uint64 // responses to no outstanding query: late or duplicate
	lat       []uint32
	firstBad  string

	// Generator self-measurement: time inside stage+flush per datagram.
	sendNs   int64
	sendPkts uint64
}

func (r *genResult) failed() uint64 { return r.wrong + r.timeouts }

func (r *genResult) noteBad(reason string) {
	r.wrong++
	if r.firstBad == "" {
		r.firstBad = reason
	}
}

func nowNs() int64 { return time.Now().UnixNano() }

// pending tracks in-flight queries by DNS ID: sent[id] is the send time, 0
// when the slot is free (a response frees its slot, so it is matched at
// most once), and q[id] the query's index in the stream.
type pending struct {
	sent [1 << 16]int64
	q    [1 << 16]uint32
}

// fifo remembers send order so expiry only ever looks at the oldest
// entries. It must hold every query sent within one queryTimeout.
type fifo struct {
	id   []uint16
	sent []int64
	head int
	tail int
}

func newFifo(n int) *fifo { return &fifo{id: make([]uint16, n), sent: make([]int64, n)} }

func (f *fifo) push(id uint16, sent int64) {
	f.id[f.tail%len(f.id)] = id
	f.sent[f.tail%len(f.id)] = sent
	f.tail++
}

// expire pops answered entries off the head and times out unanswered ones
// older than queryTimeout, reporting how many timed out.
func (f *fifo) expire(p *pending, now int64) (timedOut uint64) {
	for f.head < f.tail {
		i := f.head % len(f.id)
		if p.sent[f.id[i]] == f.sent[i] {
			if f.sent[i]+int64(queryTimeout) > now {
				break
			}
			p.sent[f.id[i]] = 0
			timedOut++
		}
		f.head++
	}
	return timedOut
}

// freeID returns the next ID after seq with no query outstanding on it.
func (p *pending) freeID(seq uint16) uint16 {
	for {
		seq++
		if p.sent[seq] == 0 {
			return seq
		}
	}
}

func dialUDP(local string, server string) (*net.UDPConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, err
	}
	var laddr *net.UDPAddr
	if local != "" {
		laddr = &net.UDPAddr{IP: net.ParseIP(local)}
	}
	conn, err := net.DialUDP("udp", laddr, raddr)
	if err != nil {
		return nil, err
	}
	// Answers come back in the server's flush bursts; a deep queue keeps
	// the measurement from dropping what the server did answer.
	_ = conn.SetReadBuffer(4 << 20)
	return conn, nil
}

// closedLoop keeps closedWindow queries in flight on one socket for each
// phase duration in turn, calling between(i) after phase i has drained. It
// returns one result per phase. Queries continue through the stream across
// phases, so a warm-up phase is simply phase 0.
func closedLoop(server string, c *corpus, qs *querySet, side *background, phases []time.Duration, between func(i int) error) ([]genResult, error) {
	conn, err := dialUDP("", server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	bc, err := udpbatch.New(conn, closedWindow)
	if err != nil {
		return nil, err
	}
	pend := new(pending)
	// One lost datagram pins the fifo head for queryTimeout while the other
	// slots keep cycling; 1<<17 covers that at over 400k qps.
	order := newFifo(1 << 17)
	results := make([]genResult, len(phases))
	var seq uint16
	next := 0
	for pi, dur := range phases {
		r := &results[pi]
		// Closed-loop throughput on one loopback core stays below ~400k
		// qps; reserving for it up front keeps append from reallocating
		// inside the window.
		r.lat = make([]uint32, 0, int(dur.Seconds()*400e3)+1024)
		inflight := 0
		start := nowNs()
		deadline := start + int64(dur)
		for {
			now := nowNs()
			if side != nil {
				side.tick(now)
			}
			if now < deadline {
				staged := 0
				for inflight+staged < closedWindow {
					w := qs.wire(next)
					seq = pend.freeID(seq)
					w[0], w[1] = byte(seq>>8), byte(seq)
					pend.q[seq] = uint32(next)
					pend.sent[seq] = now
					order.push(seq, now)
					bc.StageConnected(staged, w)
					staged++
					if next++; next == qs.len() {
						next = 0
					}
				}
				if staged > 0 {
					if _, dropped, ferr := bc.Flush(staged); ferr != nil && dropped == staged {
						return nil, fmt.Errorf("send: %w", ferr)
					}
					r.sendNs += nowNs() - now
					r.sendPkts += uint64(staged)
					r.attempted += uint64(staged)
					inflight += staged
				}
			} else if inflight == 0 {
				break
			}
			// Wake at the latest in time to expire a lost query, and never
			// past the side schedule's next tick: an attacker does not
			// pause because the server has gone quiet.
			wake := now + int64(queryTimeout/4)
			if side != nil {
				wake = min(wake, side.nextDue)
			}
			_ = conn.SetReadDeadline(time.Unix(0, wake))
			n, rerr := bc.ReadBatch()
			got := nowNs()
			if rerr != nil {
				if !errors.Is(rerr, os.ErrDeadlineExceeded) {
					return nil, fmt.Errorf("receive: %w", rerr)
				}
				n = 0
			}
			for i := 0; i < n; i++ {
				pkt := bc.Packet(i)
				if len(pkt) < 12 {
					r.unmatched++
					continue
				}
				id := uint16(pkt[0])<<8 | uint16(pkt[1])
				sent := pend.sent[id]
				pend.sent[id] = 0
				if sent == 0 {
					r.unmatched++
					continue
				}
				inflight--
				if bad := checkResponse(c.zones, pkt, &qs.exp[pend.q[id]]); bad != "" {
					r.noteBad(bad)
					continue
				}
				r.correct++
				r.lat = append(r.lat, uint32(got-sent))
			}
			if to := order.expire(pend, got); to > 0 {
				r.timeouts += to
				inflight -= int(to)
			}
		}
		r.elapsed = time.Duration(deadline - start)
		if between != nil {
			if err := between(pi); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// background is the unmeasured side traffic of a workload, sent open loop
// on a fixed schedule whatever the server does: the attacker's flood (an
// attacker does not wait for answers) and churn_serve's visibility probes.
// The closed loop's own goroutine sends it, between its batches: a second
// busy sender thread on the generator's CPU would only time-slice against
// the first (it cost flood_mix 64-query timeouts and +-20% throughput).
// Probe answers come back on their own socket to their own receiver.
type background struct {
	flood        *querySet
	floodPerTick int
	probes       *probeSet

	fconn, pconn *net.UDPConn
	fbc          *udpbatch.Conn
	// The probe socket is written by the loop and read by receiveProbes.
	// udpbatch.Conn's read and write sides share their result fields
	// (ioN, ioErr), so despite its package comment one Conn cannot serve
	// both goroutines; each side gets its own over the same socket.
	pSend, pRecv *udpbatch.Conn
	recvDone     chan struct{}

	nextDue int64
	fnext   int
	fseq    uint16

	// How late each tick fired, and time inside stage+flush per datagram.
	late     []uint32
	sendNs   int64
	sendPkts uint64
}

// startBackground dials the side sockets; the schedule starts at the first
// tick call. flood may be nil (no attacker), probes may be nil (no churn).
func startBackground(server string, flood *querySet, floodPerTick int, floodLocal string, probes *probeSet) (*background, error) {
	b := &background{flood: flood, floodPerTick: floodPerTick, probes: probes, recvDone: make(chan struct{})}
	var err error
	if flood != nil {
		if b.fconn, err = dialUDP(floodLocal, server); err != nil {
			return nil, err
		}
		// The attacker socket is never read: with its receive buffer at
		// the kernel minimum the replies are discarded on arrival, which
		// is what a spoofing attacker's network does with them.
		_ = b.fconn.SetReadBuffer(1)
		if b.fbc, err = udpbatch.New(b.fconn, genBatch); err != nil {
			b.close()
			return nil, err
		}
	}
	if probes != nil {
		if b.pconn, err = dialUDP("", server); err != nil {
			b.close()
			return nil, err
		}
		if b.pSend, err = udpbatch.New(b.pconn, maxProbes); err == nil {
			b.pRecv, err = udpbatch.New(b.pconn, maxProbes)
		}
		if err != nil {
			b.close()
			return nil, err
		}
		go b.receiveProbes()
	} else {
		close(b.recvDone)
	}
	return b, nil
}

func (b *background) close() {
	if b.fconn != nil {
		b.fconn.Close()
	}
	if b.pconn != nil {
		b.pconn.Close()
	}
}

// tick sends every tick that has come due by now: per tick, floodPerTick
// attack queries and one poll per live probe, all due at the tick instant.
func (b *background) tick(now int64) {
	if b.nextDue == 0 {
		b.nextDue = now
	}
	for ; b.nextDue <= now; b.nextDue += int64(tickPeriod) {
		b.late = append(b.late, uint32(min(now-b.nextDue, int64(^uint32(0)))))
		sent := 0
		for left := b.floodPerTick; b.flood != nil && left > 0; {
			k := min(left, genBatch)
			for j := 0; j < k; j++ {
				w := b.flood.wire(b.fnext)
				b.fseq++
				w[0], w[1] = byte(b.fseq>>8), byte(b.fseq)
				b.fbc.StageConnected(j, w)
				if b.fnext++; b.fnext == b.flood.len() {
					b.fnext = 0
				}
			}
			// Flood datagrams the kernel refuses are not retried: the
			// attacker's loss is not the benchmark's failure.
			_, _, _ = b.fbc.Flush(k)
			left -= k
			sent += k
		}
		if b.probes != nil {
			if n := b.probes.stage(b.pSend, now); n > 0 {
				_, _, _ = b.pSend.Flush(n)
				sent += n
			}
		}
		b.sendPkts += uint64(sent)
	}
	b.sendNs += nowNs() - now
}

func (b *background) receiveProbes() {
	defer close(b.recvDone)
	for {
		n, err := b.pRecv.ReadBatch()
		if err != nil {
			return // halt closed the socket
		}
		got := nowNs()
		for i := 0; i < n; i++ {
			if pkt := b.pRecv.Packet(i); len(pkt) >= 12 {
				b.probes.observe(uint16(pkt[0])<<8|uint16(pkt[1]), pkt, got)
			}
		}
	}
}

// halt closes the side sockets and waits for the probe receiver.
func (b *background) halt() {
	b.close()
	<-b.recvDone
}
