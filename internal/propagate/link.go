package propagate

import (
	"math/rand"
	"sync"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/simtime"
)

// Transport carries pull-protocol requests from a machine to the
// controller. Send is asynchronous: deliver runs later (possibly more
// than once, possibly never) with the response. Implementations must be
// safe for the clock discipline they are used under.
type Transport interface {
	Send(req Request, deliver func(now simtime.Time, resp *Response))
}

// Faults are the per-link failure knobs. The zero value is a clean link.
type Faults struct {
	// Down drops every request (a hard outage).
	Down bool
	// DropRate is the probability a request/response round trip is lost.
	DropRate float64
	// Delay is the base round-trip time; DelayJitter adds a uniform
	// [0, DelayJitter) extra per round trip.
	Delay, DelayJitter time.Duration
	// DuplicateRate is the probability the response is delivered twice.
	DuplicateRate float64
	// CorruptRate is the probability the response payload is mangled in
	// flight (the checksum is left stale, so verification fails).
	CorruptRate float64
}

// Link is a Transport connecting one machine to a Source, with seeded,
// per-link fault injection — the unit of failure the chaos harness
// manipulates. Deterministic for a given seed and request sequence when
// driven by a SimClock.
type Link struct {
	clock Clock
	src   *Source

	mu     sync.Mutex
	rng    *rand.Rand
	faults Faults
}

// NewLink connects a machine to src over clock with its own fault rng.
func NewLink(clock Clock, src *Source, seed int64) *Link {
	return &Link{clock: clock, src: src, rng: rand.New(rand.NewSource(seed))}
}

// SetFaults replaces the link's fault configuration.
func (l *Link) SetFaults(f Faults) {
	l.mu.Lock()
	l.faults = f
	l.mu.Unlock()
}

// Send schedules the request for handling and response delivery after the
// link's round-trip delay, subject to its faults. The response is
// produced by the source at delivery time.
func (l *Link) Send(req Request, deliver func(now simtime.Time, resp *Response)) {
	l.mu.Lock()
	f := l.faults
	if f.Down || (f.DropRate > 0 && l.rng.Float64() < f.DropRate) {
		l.mu.Unlock()
		return
	}
	delay := f.Delay
	if f.DelayJitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(f.DelayJitter)))
	}
	corrupt := f.CorruptRate > 0 && l.rng.Float64() < f.CorruptRate
	dup := f.DuplicateRate > 0 && l.rng.Float64() < f.DuplicateRate
	var dupDelay time.Duration
	if dup {
		dupDelay = delay + time.Duration(l.rng.Int63n(int64(time.Millisecond)+1))
	}
	l.mu.Unlock()

	l.clock.After(delay, func(now simtime.Time) {
		resp := l.src.Handle(req)
		if corrupt {
			resp = mangle(resp)
		}
		deliver(now, resp)
		if dup {
			l.clock.After(dupDelay-delay, func(now simtime.Time) { deliver(now, resp) })
		}
	})
}

// mangle simulates in-flight corruption: the payload changes under a
// checksum that does not. It never mutates the source's response in
// place — other deliveries may share it.
func mangle(r *Response) *Response {
	c := *r
	switch {
	case len(c.Records) > 0:
		c.Records = append([]dnswire.RR(nil), c.Records[:len(c.Records)-1]...)
	case len(c.Delta.Added) > 0:
		d := c.Delta
		d.Added = append([]dnswire.RR(nil), d.Added[:len(d.Added)-1]...)
		c.Delta = d
	case len(c.Delta.Deleted) > 0:
		d := c.Delta
		d.Deleted = append([]dnswire.RR(nil), d.Deleted[:len(d.Deleted)-1]...)
		c.Delta = d
	case len(c.Serials) > 0:
		m := make(map[dnswire.Name]uint32, len(c.Serials))
		for k, v := range c.Serials {
			m[k] = v
		}
		for k := range m {
			m[k]++
			break
		}
		c.Serials = m
	default:
		c.Sum ^= 0x5a5a5a5a
	}
	return &c
}

// direct is a fault-free synchronous-delay transport used by tests.
type direct struct {
	clock Clock
	src   *Source
	delay time.Duration
}

// NewDirect returns a clean Transport with a fixed round-trip delay.
func NewDirect(clock Clock, src *Source, delay time.Duration) Transport {
	return direct{clock: clock, src: src, delay: delay}
}

func (d direct) Send(req Request, deliver func(now simtime.Time, resp *Response)) {
	d.clock.After(d.delay, func(now simtime.Time) { deliver(now, d.src.Handle(req)) })
}
