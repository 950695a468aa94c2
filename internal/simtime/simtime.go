// Package simtime provides a deterministic discrete-event scheduler with a
// virtual clock. All simulation components in this repository are driven by a
// Scheduler rather than wall-clock time, which makes every experiment
// replayable from a seed.
package simtime

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp measured as a duration since the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Common virtual durations, re-exported so callers need not import time for
// simple cases.
const (
	Nanosecond  = Time(time.Nanosecond)
	Microsecond = Time(time.Microsecond)
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
	Minute      = Time(time.Minute)
	Hour        = Time(time.Hour)
	Day         = 24 * Hour
	Week        = 7 * Day
)

// Never is a sentinel Time later than any reachable simulation time.
const Never = Time(math.MaxInt64)

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return time.Duration(t).String()
}

// Event is a scheduled callback. The callback runs exactly once, at its
// scheduled virtual time, unless cancelled first.
type Event struct {
	at     Time
	seq    uint64 // tie-break so equal-time events run in schedule order
	fn     func(now Time)
	index  int // heap index, -1 when not in the heap
	cancel bool
}

// Cancel prevents the event from running. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.cancel = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Scheduler is a discrete-event simulator clock. It is not safe for
// concurrent use; simulations here are single-threaded and deterministic.
type Scheduler struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
}

// NewScheduler returns a scheduler positioned at the simulation epoch.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have run so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (before Now) panics: the simulation would no longer be causal.
func (s *Scheduler) At(at Time, fn func(now Time)) *Event {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, s.now))
	}
	e := &Event{at: at, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func(now Time)) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*Event)
		if e.cancel {
			continue
		}
		s.now = e.at
		s.fired++
		e.fn(s.now)
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// deadline (if it is later than the last event). Events scheduled beyond the
// deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.events) > 0 {
		// Peek.
		e := s.events[0]
		if e.cancel {
			heap.Pop(&s.events)
			continue
		}
		if e.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor is RunUntil(Now+d).
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Every schedules fn to run at now+interval, then repeatedly every interval,
// until the returned Ticker is stopped. The first firing happens one interval
// from the current time.
func (s *Scheduler) Every(interval time.Duration, fn func(now Time)) *Ticker {
	if interval <= 0 {
		panic("simtime: non-positive ticker interval")
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.schedule()
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func(now Time)
	ev       *Event
	stopped  bool
}

func (t *Ticker) schedule() {
	t.ev = t.s.After(t.interval, func(now Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		if !t.stopped {
			t.schedule()
		}
	})
}

// Stop halts future firings. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}
