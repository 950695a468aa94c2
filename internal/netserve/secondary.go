package netserve

import (
	"fmt"
	"sync"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// Secondary maintains a replica of a zone from a primary server over the
// standard protocol machinery: SOA serial polling at the zone's Refresh
// interval (Retry on failure), AXFR when the primary's serial is newer, and
// immediate refresh on NOTIFY (RFC 1996). The paper's platform moves zone
// data over a proprietary CDN-delivered channel (§3.2); this is the
// standards-track equivalent the ADHS service also supports ("DNS zones can
// also be updated through zone transfers", §3.2).
type Secondary struct {
	Store   *zone.Store
	Origin  dnswire.Name
	Primary string // TCP address of the primary

	// MinInterval floors the poll interval (tests use tiny refresh values).
	MinInterval time.Duration
	// Timeout bounds each poll/transfer.
	Timeout time.Duration

	mu      sync.Mutex
	stopCh  chan struct{}
	kick    chan struct{}
	running bool
	stats   SecondaryStats
}

// SecondaryStats is a snapshot of a Secondary's counters.
type SecondaryStats struct {
	// Transfers counts successful zone pulls; Incrementals counts those
	// served as IXFR deltas; Polls counts SOA checks.
	Transfers, Incrementals, Polls uint64
	// LastErr records the most recent refresh's failure (nil on success).
	LastErr error
}

// NewSecondary builds a secondary for one zone.
func NewSecondary(store *zone.Store, origin dnswire.Name, primary string) *Secondary {
	return &Secondary{
		Store: store, Origin: origin, Primary: primary,
		MinInterval: 100 * time.Millisecond,
		Timeout:     3 * time.Second,
		kick:        make(chan struct{}, 1),
	}
}

// Start launches the refresh loop (idempotent).
func (s *Secondary) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.stopCh = make(chan struct{})
	go s.loop(s.stopCh)
}

// Stop halts the loop.
func (s *Secondary) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	close(s.stopCh)
}

// Notify triggers an immediate refresh check (wired to the server's NOTIFY
// handler).
func (s *Secondary) Notify() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Serial reports the locally-held serial (0 = no copy yet).
func (s *Secondary) Serial() uint32 {
	if z := s.Store.Get(s.Origin); z != nil {
		return z.Serial()
	}
	return 0
}

func (s *Secondary) loop(stop chan struct{}) {
	for {
		interval := s.RefreshOnce()
		if interval < s.MinInterval {
			interval = s.MinInterval
		}
		select {
		case <-stop:
			return
		case <-s.kick:
		case <-time.After(interval):
		}
	}
}

// Stats snapshots the secondary's counters.
func (s *Secondary) Stats() SecondaryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RefreshOnce performs one poll/transfer cycle and returns the time to wait
// before the next (the zone's Refresh, or Retry after a failure).
func (s *Secondary) RefreshOnce() time.Duration {
	refresh, retry := 3600*time.Second, 600*time.Second
	if z := s.Store.Get(s.Origin); z != nil {
		if soa := z.SOA(); soa != nil {
			refresh = time.Duration(soa.Refresh) * time.Second
			retry = time.Duration(soa.Retry) * time.Second
		}
	}
	next, incremental, err := s.pull()
	if next != nil {
		s.Store.Put(next)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Polls++
	s.stats.LastErr = err
	if next != nil {
		s.stats.Transfers++
		if incremental {
			s.stats.Incrementals++
		}
	}
	if err != nil {
		return retry
	}
	return refresh
}

// pull fetches the primary's version when it is not the one held: built
// from an IXFR delta when one chains from the held version, from a full
// transfer otherwise. It returns nil when the held version is current.
func (s *Secondary) pull() (next *zone.Zone, incremental bool, err error) {
	remote, err := s.remoteSerial()
	if err != nil {
		return nil, false, fmt.Errorf("netserve: secondary poll %s: %w", s.Origin, err)
	}
	have := s.Serial()
	if have != 0 && remote == have {
		return nil, false, nil
	}
	if have != 0 {
		if res, err := TransferIncremental(s.Primary, s.Origin, have, s.Timeout); err == nil {
			switch {
			case res.UpToDate:
				return nil, false, nil
			case res.Delta != nil:
				// A delta that does not chain falls through to a full transfer.
				if next, err := zone.Apply(s.Store.Get(s.Origin), *res.Delta); err == nil {
					return next, true, nil
				}
			case res.Full != nil:
				if next, err := zone.FromTransfer(s.Origin, res.Full); err == nil {
					return next, false, nil
				}
			}
		}
	}
	recs, err := Transfer(s.Primary, s.Origin, s.Timeout)
	if err != nil {
		return nil, false, fmt.Errorf("netserve: secondary transfer %s: %w", s.Origin, err)
	}
	next, err = zone.FromTransfer(s.Origin, recs)
	return next, false, err
}

func (s *Secondary) remoteSerial() (uint32, error) {
	q := dnswire.NewQuery(uint16(time.Now().UnixNano()), s.Origin, dnswire.TypeSOA)
	resp, err := Exchange(s.Primary, q, true, s.Timeout)
	if err != nil {
		return 0, err
	}
	if resp.RCode != dnswire.RCodeNoError {
		return 0, fmt.Errorf("SOA query rcode %s", resp.RCode)
	}
	for _, rr := range resp.Answers {
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa.Serial, nil
		}
	}
	return 0, fmt.Errorf("no SOA in answer")
}

// SendNotify sends a NOTIFY message (RFC 1996) for origin to a secondary's
// server address; primaries call this after zone updates.
func SendNotify(addr string, origin dnswire.Name, timeout time.Duration) error {
	m := &dnswire.Message{
		Header:    dnswire.Header{ID: uint16(time.Now().UnixNano()), OpCode: dnswire.OpNotify, Authoritative: true},
		Questions: []dnswire.Question{{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET}},
	}
	resp, err := Exchange(addr, m, false, timeout)
	if err != nil {
		return err
	}
	if resp.OpCode != dnswire.OpNotify {
		return fmt.Errorf("netserve: NOTIFY response opcode %d", resp.OpCode)
	}
	return nil
}
