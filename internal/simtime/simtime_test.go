package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*Second, func(Time) { got = append(got, 3) })
	s.At(1*Second, func(Time) { got = append(got, 1) })
	s.At(2*Second, func(Time) { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func(Time) { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events ran out of schedule order: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.At(Second, func(Time) { ran = true })
	e.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Second, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func(Time) {})
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Time(i) * Second
		s.At(d, func(now Time) { fired = append(fired, now) })
	}
	s.RunUntil(3 * Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events after Run, want 5", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(Hour)
	if s.Now() != Hour {
		t.Fatalf("Now = %v, want 1h", s.Now())
	}
}

func TestAfterFromWithinEvent(t *testing.T) {
	s := NewScheduler()
	var times []Time
	s.At(Second, func(now Time) {
		s.After(time.Second, func(now2 Time) { times = append(times, now2) })
	})
	s.Run()
	if len(times) != 1 || times[0] != 2*Second {
		t.Fatalf("nested After fired at %v, want [2s]", times)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := s.Every(time.Second, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			// Stop from inside the callback.
			return
		}
	})
	s.RunUntil(3 * Second)
	tk.Stop()
	s.RunUntil(10 * Second)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, tt := range ticks {
		if want := Time(i+1) * Second; tt != want {
			t.Fatalf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func(now Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(Minute)
	if n != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", n)
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	s := NewScheduler()
	s.At(Second, func(Time) {})
	s.Run()
	fired := false
	s.After(-5*time.Second, func(Time) { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if s.Now() != Second {
		t.Fatalf("clock moved backwards: %v", s.Now())
	}
}

// Property: events fire in nondecreasing time order regardless of insertion
// order.
func TestPropertyMonotoneFiring(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var fired []Time
		k := int(n%64) + 1
		for i := 0; i < k; i++ {
			s.At(Time(rng.Int63n(int64(Hour))), func(now Time) {
				fired = append(fired, now)
			})
		}
		s.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) &&
			len(fired) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock after Run equals the max scheduled time.
func TestPropertyClockEndsAtMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var max Time
		for i := 0; i < 20; i++ {
			at := Time(rng.Int63n(int64(Day)))
			if at > max {
				max = at
			}
			s.At(at, func(Time) {})
		}
		s.Run()
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFiredCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i)*Second, func(Time) {})
	}
	e := s.At(10*Second, func(Time) {})
	e.Cancel()
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7 (cancelled events must not count)", s.Fired())
	}
}

func TestTimeString(t *testing.T) {
	if Never.String() != "never" {
		t.Fatalf("Never.String() = %q", Never.String())
	}
	if (2 * Second).String() != "2s" {
		t.Fatalf("(2s).String() = %q", (2 * Second).String())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(90 * time.Minute)
	if a != Hour+30*Minute {
		t.Fatalf("Add: %v", a)
	}
	if a.Sub(Hour) != 30*time.Minute {
		t.Fatalf("Sub: %v", a.Sub(Hour))
	}
}
