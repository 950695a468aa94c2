package propagate

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"akamaidns/internal/backoff"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/obs"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// TestPullLoopRace drives a wall-clock puller while four things happen
// concurrently: the controller churns committed versions, a reader hammers
// the local store the way a serving engine would, pokes arrive, and the
// metrics registry is scraped. Run under -race; the assertions also prove
// the torn-read oracle: every observed local version must be one the
// controller actually committed.
func TestPullLoopRace(t *testing.T) {
	origin := dnswire.MustName("race.test")
	ctl := zone.NewStore()
	hist := zone.NewHistory(16)
	z1 := mkZone(t, "race.test", 1, "")
	ctl.Put(z1)
	hist.Record(z1)
	src := NewSource(ctl, hist)

	clock := NewWallClock()
	link := NewLink(clock, src, 3)
	link.SetFaults(Faults{Delay: time.Millisecond, DelayJitter: 2 * time.Millisecond, DropRate: 0.1, DuplicateRate: 0.1})

	local := zone.NewStore()
	reg := obs.NewRegistry()
	var syncs atomic.Int64
	p := NewTimed(Config{
		ID: "race-m0", Clock: clock, Transport: link, Store: local,
		Seed: 11, Obs: reg,
		OnSync: func(simtime.Time) { syncs.Add(1) },
	}, 5*time.Millisecond, 20*time.Millisecond, backoff.Default())

	// committed records every serial the controller has ever committed,
	// so readers can verify they never see an uncommitted version.
	var mu sync.Mutex
	committed := map[uint32]uint64{1: ZoneSum(z1)}

	p.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churner: commit serial after serial, ctlplane-style (record into
	// history, then poke).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := uint32(2); ; s++ {
			select {
			case <-stop:
				return
			default:
			}
			z := mkZone(t, "race.test", s, fmt.Sprintf("r%d IN A 192.0.2.40\n", s))
			mu.Lock()
			committed[s] = ZoneSum(z)
			mu.Unlock()
			ctl.Put(z)
			hist.Record(z)
			p.Poke()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers: consume the local store like a serving engine. The yield
	// between reads keeps four readers from starving the pull loop's
	// timers on small (single-core CI) machines.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(200 * time.Microsecond)
				if z := local.Get(origin); z != nil {
					serial := z.Serial()
					sum := ZoneSum(z)
					mu.Lock()
					want, ok := committed[serial]
					mu.Unlock()
					if !ok {
						t.Errorf("local store serves uncommitted serial %d", serial)
						return
					}
					if sum != want {
						t.Errorf("local serial %d content differs from committed version", serial)
						return
					}
				}
			}
		}()
	}

	// Scraper: the obs gauges take the puller lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Snapshot()
			_ = p.Status()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(800 * time.Millisecond)
	// Quiesce: stop churn, clean the link, let the puller converge.
	close(stop)
	wg.Wait()
	link.SetFaults(Faults{Delay: time.Millisecond})
	p.Poke()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lz := local.Get(origin)
		if lz != nil && lz.Serial() == ctl.Get(origin).Serial() && ZoneSum(lz) == ZoneSum(ctl.Get(origin)) {
			break
		}
		if time.Now().After(deadline) {
			st := p.Status()
			t.Fatalf("no convergence after churn stopped: local=%v controller=%d status=%+v",
				lz, ctl.Get(origin).Serial(), st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	if syncs.Load() == 0 {
		t.Fatal("OnSync never fired")
	}
	st := p.Status()
	if st.DeltaPulls == 0 {
		t.Fatalf("expected delta pulls under churn: %+v", st)
	}
}

// TestPullLoopRaceStopDuringFlight stops the puller while requests are in
// flight; late deliveries and timer fires must be harmless.
func TestPullLoopRaceStopDuringFlight(t *testing.T) {
	ctl := zone.NewStore()
	ctl.Put(mkZone(t, "a.test", 1, ""))
	src := NewSource(ctl, nil)
	clock := NewWallClock()
	for i := 0; i < 20; i++ {
		link := NewLink(clock, src, int64(i))
		link.SetFaults(Faults{Delay: time.Millisecond, DelayJitter: 3 * time.Millisecond, DuplicateRate: 0.5})
		p := NewTimed(Config{
			ID: "stopper", Clock: clock, Transport: link, Store: zone.NewStore(), Seed: int64(i),
		}, time.Millisecond, 2*time.Millisecond, backoff.Default())
		p.Start()
		time.Sleep(time.Duration(i%5) * time.Millisecond)
		p.Stop()
	}
	// Give stray timers time to fire against stopped pullers.
	time.Sleep(20 * time.Millisecond)
}
