package qod

import (
	"sync"
	"sync/atomic"
	"time"
)

// WatchdogConfig tunes the live self-suspension watchdog.
type WatchdogConfig struct {
	// Window is the counting window the rates are measured over.
	Window time.Duration
	// MaxPanics per window trips suspension (contained handler panics).
	MaxPanics int
	// MaxMalformed undecodable packets per window trips suspension
	// (a machine drowning in garbage it cannot even parse).
	MaxMalformed int
	// Quiet is how long after the last trip the machine stays suspended;
	// any further trip (still possible over TCP, or from probes) extends it.
	Quiet time.Duration
}

// DefaultWatchdogConfig returns production-flavoured thresholds: tolerate
// isolated contained panics (quarantine handles those), suspend on a storm.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		Window:       time.Second,
		MaxPanics:    5,
		MaxMalformed: 50000,
		Quiet:        3 * time.Second,
	}
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	d := DefaultWatchdogConfig()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.MaxPanics <= 0 {
		c.MaxPanics = d.MaxPanics
	}
	if c.MaxMalformed <= 0 {
		c.MaxMalformed = d.MaxMalformed
	}
	if c.Quiet <= 0 {
		c.Quiet = d.Quiet
	}
	return c
}

// Trip reasons.
const (
	TripPanic     = "panic"
	TripMalformed = "malformed"
)

// Watchdog mirrors the §4.2.1 monitoring-agent cap logic onto the real
// sockets: it counts contained panics and undecodable packets per window,
// and while tripped the server reports
// unhealthy (503 on /healthz, anycast withdrawal upstream) and its UDP
// workers discard traffic unread. Recovery is lazy: once the quiet period
// passes with no further trips, Suspended flips back on its own — the
// socket-level analogue of the agent's RecoverThreshold.
//
// Suspended is a single atomic load, cheap enough for the per-packet path;
// the Record methods take the window lock but run only on the rare paths
// (panics, decode errors).
type Watchdog struct {
	cfg WatchdogConfig

	// suspendedUntil is the suspension deadline in UnixNano (0 = healthy).
	suspendedUntil atomic.Int64

	tripsPanic     atomic.Uint64
	tripsMalformed atomic.Uint64

	mu          sync.Mutex
	windowStart time.Time
	panics      int
	malformed   int
}

// NewWatchdog builds a watchdog (zero config fields take defaults).
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{cfg: cfg.withDefaults()}
}

// Suspended reports whether the machine is currently self-suspended. A
// lapsed deadline is cleared here, so Engaged returns to its fast false
// state once recovery is observed.
func (w *Watchdog) Suspended(now time.Time) bool {
	until := w.suspendedUntil.Load()
	if until == 0 {
		return false
	}
	if now.UnixNano() >= until {
		w.suspendedUntil.CompareAndSwap(until, 0)
		return false
	}
	return true
}

// Engaged reports whether a suspension deadline is pending without reading
// the clock — the per-packet fast check. It may stay true briefly after the
// deadline lapses (until the next Suspended call clears it), so callers pair
// it with Suspended: `if w.Engaged() && w.Suspended(time.Now())`.
func (w *Watchdog) Engaged() bool { return w.suspendedUntil.Load() != 0 }

// Trips reports how many times each tripwire fired.
func (w *Watchdog) Trips(reason string) uint64 {
	switch reason {
	case TripPanic:
		return w.tripsPanic.Load()
	case TripMalformed:
		return w.tripsMalformed.Load()
	}
	return 0
}

// RecordPanic counts one contained handler panic.
func (w *Watchdog) RecordPanic(now time.Time) {
	w.mu.Lock()
	w.rotateLocked(now)
	w.panics++
	trip := w.panics >= w.cfg.MaxPanics
	if trip {
		w.panics = 0
	}
	w.mu.Unlock()
	if trip {
		w.trip(now, &w.tripsPanic)
	}
}

// RecordMalformed counts one undecodable packet.
func (w *Watchdog) RecordMalformed(now time.Time) {
	w.mu.Lock()
	w.rotateLocked(now)
	w.malformed++
	trip := w.malformed >= w.cfg.MaxMalformed
	if trip {
		w.malformed = 0
	}
	w.mu.Unlock()
	if trip {
		w.trip(now, &w.tripsMalformed)
	}
}

// rotateLocked starts a fresh window when the current one has lapsed.
func (w *Watchdog) rotateLocked(now time.Time) {
	if w.windowStart.IsZero() || now.Sub(w.windowStart) > w.cfg.Window {
		w.windowStart = now
		w.panics, w.malformed = 0, 0
	}
}

// trip extends the suspension deadline to now+Quiet.
func (w *Watchdog) trip(now time.Time, counter *atomic.Uint64) {
	counter.Add(1)
	until := now.Add(w.cfg.Quiet).UnixNano()
	for {
		cur := w.suspendedUntil.Load()
		if cur >= until || w.suspendedUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}
