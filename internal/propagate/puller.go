package propagate

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"akamaidns/internal/backoff"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/obs"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// Config configures a Puller.
type Config struct {
	// ID names the machine (metrics, errors).
	ID string
	// Clock drives timers — SimClock in simulations, WallClock live.
	Clock Clock
	// Transport carries requests to the controller.
	Transport Transport
	// Store is the machine's own zone store, the one its nameserver
	// engine serves from.
	Store *zone.Store
	// Interval between poll cycles when in sync (default 2s).
	Interval time.Duration
	// Timeout per request attempt (default 1s).
	Timeout time.Duration
	// Backoff for failed cycles (zero value: backoff.Default()).
	Backoff backoff.Policy
	// Seed drives poll jitter and backoff jitter deterministically.
	Seed int64
	// OnSync fires after every fully successful pull cycle — the only
	// freshness signal. Wire it to nameserver.Server.RecordInput so the
	// staleness discipline (serve-stale, then self-suspend, resume after
	// catch-up) applies to real propagation state rather than to
	// notification receipt. Called without internal locks held.
	OnSync func(now simtime.Time)
	// Obs, when non-nil, gets the propagate_* metric series.
	Obs *obs.Registry
}

// Status is a point-in-time snapshot of a puller's counters.
type Status struct {
	// Synced is true once at least one cycle has fully succeeded.
	Synced bool
	// LastSync is the clock time of the last successful cycle.
	LastSync simtime.Time
	// Attempt is the current consecutive-failure count (0 when healthy).
	Attempt int
	// ZonesBehind is the work-list size of the last catalog comparison.
	ZonesBehind int

	Cycles, Failures, Retries, Timeouts            uint64
	DeltaPulls, FullPulls, Noops, Deletes, Resyncs uint64
	CorruptRejected, SumMismatches, LateResponses  uint64
}

type workItem struct {
	origin dnswire.Name
	op     Op
	from   uint32
}

// Puller is one machine's propagation pull loop: an event-driven state
// machine over Clock timers and Transport deliveries. Safe for concurrent
// use (wall-clock timers fire on separate goroutines).
type Puller struct {
	cfg Config
	pol backoff.Policy

	mu       sync.Mutex
	rng      *rand.Rand
	started  bool
	stopped  bool
	active   bool // a pull cycle is in flight
	awaiting bool // a request attempt is outstanding
	poked    bool // a notify arrived mid-cycle; re-poll promptly
	seq      uint64

	cancelPoll    func()
	cancelTimeout func()

	work    []workItem
	workIdx int
	// failedInCycle counts work items that failed (timeout, corruption,
	// checksum) this cycle. Failed items are skipped, not retried inline:
	// the cycle keeps pulling the remaining items so one lossy transfer
	// cannot starve the rest, then the whole cycle retries after backoff
	// and the next catalog comparison re-lists only what is still behind.
	failedInCycle int

	st Status
}

// New builds a puller. Clock, Transport, and Store are required.
func New(cfg Config) *Puller {
	if cfg.Clock == nil || cfg.Transport == nil || cfg.Store == nil {
		panic("propagate: Config needs Clock, Transport, and Store")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	pol := cfg.Backoff
	if pol == (backoff.Policy{}) {
		pol = backoff.Default()
	}
	return &Puller{cfg: cfg, pol: pol, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Start schedules the first poll at a random offset within one interval
// (staggering a fleet of pullers) and registers metrics.
func (p *Puller) Start() {
	p.mu.Lock()
	if p.started || p.stopped {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.schedulePollLocked(time.Duration(p.rng.Int63n(int64(p.cfg.Interval))))
	p.mu.Unlock()
	// Registered outside p.mu: the gauge funcs take p.mu when scraped,
	// so registering under it would invert lock order against a scrape.
	p.registerObs()
}

// Stop cancels all timers; the puller stays stopped.
func (p *Puller) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.cancelPoll != nil {
		p.cancelPoll()
		p.cancelPoll = nil
	}
	if p.cancelTimeout != nil {
		p.cancelTimeout()
		p.cancelTimeout = nil
	}
}

// Poke nudges the puller: a committed change was published, so poll now
// instead of waiting out the interval. Safe from any goroutine.
func (p *Puller) Poke() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started || p.stopped {
		return
	}
	if p.active {
		p.poked = true
		return
	}
	// Collapse the pending poll to (almost) now; the sub-millisecond
	// jitter keeps simultaneous pokes across a fleet from phase-locking.
	p.schedulePollLocked(time.Duration(p.rng.Int63n(int64(time.Millisecond))) + 100*time.Microsecond)
}

// Status returns a snapshot of the puller's counters.
func (p *Puller) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// --- scheduling ---

func (p *Puller) schedulePollLocked(d time.Duration) {
	if p.cancelPoll != nil {
		p.cancelPoll()
	}
	p.cancelPoll = p.cfg.Clock.After(d, p.pollFired)
}

func (p *Puller) pollFired(now simtime.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped || p.active {
		return
	}
	p.cancelPoll = nil
	p.active = true
	p.poked = false
	p.work = nil
	p.workIdx = 0
	p.failedInCycle = 0
	p.sendLocked(Request{Op: OpCatalog})
}

func (p *Puller) sendLocked(req Request) {
	p.seq++
	id := p.seq
	p.awaiting = true
	if p.cancelTimeout != nil {
		p.cancelTimeout()
	}
	p.cancelTimeout = p.cfg.Clock.After(p.cfg.Timeout, func(now simtime.Time) {
		p.onTimeout(id, now)
	})
	p.cfg.Transport.Send(req, func(now simtime.Time, resp *Response) {
		p.onResponse(id, now, resp)
	})
}

func (p *Puller) onTimeout(id uint64, now simtime.Time) {
	p.mu.Lock()
	if p.stopped || !p.awaiting || id != p.seq {
		p.mu.Unlock()
		return
	}
	p.awaiting = false
	p.st.Timeouts++
	var onSync func(simtime.Time)
	if p.work == nil {
		// The catalog attempt itself timed out: without it there is no
		// work list, so the whole cycle retries after backoff.
		p.failCycleLocked()
	} else {
		onSync = p.skipItemLocked(now)
	}
	p.mu.Unlock()
	if onSync != nil {
		onSync(now)
	}
}

// skipItemLocked abandons the current work item (it stays behind until the
// next cycle's catalog re-lists it) and moves on.
func (p *Puller) skipItemLocked(now simtime.Time) func(simtime.Time) {
	p.failedInCycle++
	return p.advanceLocked(now)
}

// failCycleLocked closes out a failed cycle (catalog lost, or one or more
// items skipped) and schedules a backed-off retry.
func (p *Puller) failCycleLocked() {
	p.active = false
	p.awaiting = false
	p.work = nil
	p.st.Failures++
	p.st.Retries++
	p.st.Attempt++
	p.schedulePollLocked(p.pol.Delay(p.st.Attempt-1, p.rng))
}

// succeedCycleLocked finishes a fully applied cycle and returns the
// OnSync hook to run once the lock is released.
func (p *Puller) succeedCycleLocked(now simtime.Time) func(simtime.Time) {
	p.active = false
	p.awaiting = false
	p.work = nil
	p.st.Attempt = 0
	p.st.Cycles++
	p.st.Synced = true
	p.st.LastSync = now
	next := p.cfg.Interval
	// ±10% jitter de-phases the fleet; a mid-cycle poke re-polls almost
	// immediately instead.
	if p.poked {
		next = time.Duration(p.rng.Int63n(int64(time.Millisecond))) + 100*time.Microsecond
	} else if j := int64(next / 10); j > 0 {
		next += time.Duration(p.rng.Int63n(2*j) - j)
	}
	p.poked = false
	p.schedulePollLocked(next)
	return p.cfg.OnSync
}

// --- response handling ---

func (p *Puller) onResponse(id uint64, now simtime.Time, resp *Response) {
	p.mu.Lock()
	if p.stopped || !p.awaiting || id != p.seq {
		// A duplicate, a late arrival for an abandoned attempt, or
		// delivery after Stop.
		p.st.LateResponses++
		p.mu.Unlock()
		return
	}
	p.awaiting = false
	if p.cancelTimeout != nil {
		p.cancelTimeout()
		p.cancelTimeout = nil
	}
	var onSync func(simtime.Time)
	if !resp.Verify() {
		p.st.CorruptRejected++
		if p.work == nil {
			p.failCycleLocked()
		} else {
			onSync = p.skipItemLocked(now)
		}
	} else {
		switch resp.Op {
		case OpCatalog:
			onSync = p.handleCatalogLocked(now, resp)
		case OpIXFR:
			onSync = p.handleIXFRLocked(now, resp)
		case OpAXFR:
			onSync = p.handleAXFRLocked(now, resp)
		default:
			p.failCycleLocked()
		}
	}
	p.mu.Unlock()
	if onSync != nil {
		onSync(now)
	}
}

// handleCatalogLocked compares the catalog with the local store in place:
// one probe per catalog origin, and a walk of the local set only when it
// holds zones the catalog did not name. It builds no serial map of the
// local set: under churn every cycle installs a new set, and a map per set
// would allocate O(zones) each time.
func (p *Puller) handleCatalogLocked(now simtime.Time, resp *Response) func(simtime.Time) {
	store := p.cfg.Store
	var items []workItem
	held := 0
	for origin, serial := range resp.Serials {
		z := store.Get(origin)
		if z == nil {
			items = append(items, workItem{origin: origin, op: OpAXFR})
			continue
		}
		held++
		if local := z.Serial(); local != serial {
			items = append(items, workItem{origin: origin, op: OpIXFR, from: local})
		}
	}
	// Origins the controller no longer serves are deleted locally, at
	// once — no network round trip needed. One store batch for all of
	// them: a mass-deprovision catalog costs one dirty-shard republish
	// instead of a republish per origin.
	var gone []dnswire.Name
	if store.Len() > held {
		store.Each(func(z *zone.Zone) {
			if _, ok := resp.Serials[z.Origin()]; !ok {
				gone = append(gone, z.Origin())
			}
		})
	}
	if len(gone) > 0 {
		store.Update(func(tx *zone.Tx) {
			for _, origin := range gone {
				if tx.Delete(origin) {
					p.st.Deletes++
				}
			}
		})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].origin.Compare(items[j].origin) < 0 })
	p.st.ZonesBehind = len(items)
	if len(items) == 0 {
		return p.succeedCycleLocked(now)
	}
	p.work = items
	p.workIdx = 0
	p.sendLocked(p.itemRequestLocked())
	return nil
}

func (p *Puller) itemRequestLocked() Request {
	it := p.work[p.workIdx]
	return Request{Op: it.op, Origin: it.origin, FromSerial: it.from}
}

// resyncLocked retries the current item as a full transfer.
func (p *Puller) resyncLocked() {
	p.st.Resyncs++
	p.work[p.workIdx].op = OpAXFR
	p.sendLocked(p.itemRequestLocked())
}

// advanceLocked moves to the next work item or finishes the cycle. A cycle
// with skipped items counts as failed — no OnSync, so freshness is only
// ever signalled by a cycle that applied everything — and retries after
// backoff; the applied items' progress is kept either way.
func (p *Puller) advanceLocked(now simtime.Time) func(simtime.Time) {
	p.workIdx++
	if p.workIdx < len(p.work) {
		p.sendLocked(p.itemRequestLocked())
		return nil
	}
	if p.failedInCycle > 0 {
		p.failCycleLocked()
		return nil
	}
	return p.succeedCycleLocked(now)
}

func (p *Puller) handleIXFRLocked(now simtime.Time, resp *Response) func(simtime.Time) {
	if p.work == nil {
		p.failCycleLocked()
		return nil
	}
	it := p.work[p.workIdx]
	if resp.Origin != it.origin || it.op != OpIXFR {
		return p.skipItemLocked(now)
	}
	if resp.Resync {
		p.resyncLocked()
		return nil
	}
	local := p.cfg.Store.Get(it.origin)
	if local == nil || local.Serial() != resp.Delta.FromSerial {
		// The local version moved (or vanished) under us; the delta does
		// not chain from what we have.
		p.resyncLocked()
		return nil
	}
	if resp.Delta.FromSerial == resp.Delta.ToSerial {
		// Already current despite the catalog — the controller moved
		// between catalog and delta. Nothing to apply.
		p.st.Noops++
		return p.advanceLocked(now)
	}
	nz, err := zone.Apply(local, resp.Delta)
	if err != nil {
		// Same serial, diverged content: the delta assumes records we do
		// not have. Heal with a full transfer.
		p.resyncLocked()
		return nil
	}
	if ZoneSum(nz) != resp.ZoneSum {
		// End-to-end content check failed — e.g. SOA fields other than
		// the serial drifted (deltas cannot carry those). Never install;
		// resync instead.
		p.st.SumMismatches++
		p.resyncLocked()
		return nil
	}
	p.cfg.Store.Put(nz)
	p.st.DeltaPulls++
	return p.advanceLocked(now)
}

func (p *Puller) handleAXFRLocked(now simtime.Time, resp *Response) func(simtime.Time) {
	if p.work == nil {
		p.failCycleLocked()
		return nil
	}
	it := p.work[p.workIdx]
	if resp.Origin != it.origin || it.op != OpAXFR {
		return p.skipItemLocked(now)
	}
	if resp.Records == nil {
		// Origin gone at the controller.
		if p.cfg.Store.Delete(it.origin) {
			p.st.Deletes++
		}
		return p.advanceLocked(now)
	}
	// Build and verify BEFORE installing: an unverified version must
	// never become servable.
	nz, err := zone.FromTransfer(it.origin, resp.Records)
	if err != nil {
		p.st.CorruptRejected++
		return p.skipItemLocked(now)
	}
	if ZoneSum(nz) != resp.ZoneSum {
		p.st.SumMismatches++
		return p.skipItemLocked(now)
	}
	p.cfg.Store.Put(nz)
	p.st.FullPulls++
	return p.advanceLocked(now)
}

// --- metrics ---

func (p *Puller) registerObs() {
	reg := p.cfg.Obs
	if reg == nil {
		return
	}
	counter := func(name, help string, f func(*Status) uint64, labels ...string) {
		reg.CounterFunc(name, help, func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(f(&p.st))
		}, labels...)
	}
	counter("propagate_cycles_total", "Pull cycles by result.",
		func(s *Status) uint64 { return s.Cycles }, "result", "ok")
	counter("propagate_cycles_total", "Pull cycles by result.",
		func(s *Status) uint64 { return s.Failures }, "result", "fail")
	counter("propagate_pulls_total", "Zone pulls applied, by kind.",
		func(s *Status) uint64 { return s.DeltaPulls }, "kind", "delta")
	counter("propagate_pulls_total", "Zone pulls applied, by kind.",
		func(s *Status) uint64 { return s.FullPulls }, "kind", "full")
	counter("propagate_pulls_total", "Zone pulls applied, by kind.",
		func(s *Status) uint64 { return s.Noops }, "kind", "noop")
	counter("propagate_pulls_total", "Zone pulls applied, by kind.",
		func(s *Status) uint64 { return s.Deletes }, "kind", "delete")
	counter("propagate_retries_total", "Cycle retries after failure.",
		func(s *Status) uint64 { return s.Retries })
	counter("propagate_resyncs_total", "Delta-to-full-transfer fallbacks.",
		func(s *Status) uint64 { return s.Resyncs })
	counter("propagate_corrupt_total", "Responses rejected by checksum or framing.",
		func(s *Status) uint64 { return s.CorruptRejected })
	counter("propagate_sum_mismatch_total", "Applied versions rejected by the end-to-end content hash.",
		func(s *Status) uint64 { return s.SumMismatches })
	counter("propagate_timeouts_total", "Request attempts that timed out.",
		func(s *Status) uint64 { return s.Timeouts })
	counter("propagate_late_total", "Duplicate or late deliveries ignored.",
		func(s *Status) uint64 { return s.LateResponses })
	reg.GaugeFunc("propagate_zones_behind", "Zones needing transfer at the last catalog comparison.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.st.ZonesBehind)
		})
	reg.GaugeFunc("propagate_last_sync_age_seconds", "Time since the last fully successful pull cycle.",
		func() float64 {
			now := p.cfg.Clock.Now()
			p.mu.Lock()
			defer p.mu.Unlock()
			if !p.st.Synced {
				return -1
			}
			return now.Sub(p.st.LastSync).Seconds()
		})
	reg.GaugeFunc("propagate_attempt", "Consecutive failed cycles (0 when healthy).",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.st.Attempt)
		})
}

// String describes the puller (debug logs).
func (p *Puller) String() string {
	s := p.Status()
	return fmt.Sprintf("puller(%s synced=%v behind=%d attempt=%d cycles=%d)",
		p.cfg.ID, s.Synced, s.ZonesBehind, s.Attempt, s.Cycles)
}
