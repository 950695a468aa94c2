package propagate

import (
	"sync"
	"time"

	"akamaidns/internal/simtime"
)

// Clock abstracts time for the pull loop so the same Puller runs inside
// the deterministic simulation (chaos scenarios) and against wall-clock
// time (the live edges of bench/ and of the serve-under-churn test).
type Clock interface {
	// Now returns the current time as a duration since the clock epoch.
	Now() simtime.Time
	// After schedules fn once after d and returns a cancel function.
	// Cancelling an already-fired timer is a no-op.
	After(d time.Duration, fn func(now simtime.Time)) (cancel func())
}

// SimClock drives a Puller from the discrete-event scheduler. Like the
// scheduler itself it is not safe for concurrent use: everything happens
// on the single simulation thread.
type SimClock struct{ Sched *simtime.Scheduler }

func (c SimClock) Now() simtime.Time { return c.Sched.Now() }

func (c SimClock) After(d time.Duration, fn func(now simtime.Time)) func() {
	ev := c.Sched.After(d, fn)
	return ev.Cancel
}

// WallClock drives a Puller from real time. Timers fire on their own
// goroutines (time.AfterFunc), so anything they touch must be
// mutex-guarded — the Puller is.
type WallClock struct {
	once  sync.Once
	epoch time.Time
}

// NewWallClock returns a wall clock whose epoch is its creation time.
func NewWallClock() *WallClock {
	c := &WallClock{}
	c.init()
	return c
}

func (c *WallClock) init() { c.once.Do(func() { c.epoch = time.Now() }) }

func (c *WallClock) Now() simtime.Time {
	c.init()
	return simtime.Time(time.Since(c.epoch))
}

func (c *WallClock) After(d time.Duration, fn func(now simtime.Time)) func() {
	c.init()
	if d < 0 {
		d = 0
	}
	t := time.AfterFunc(d, func() { fn(c.Now()) })
	return func() { t.Stop() }
}
