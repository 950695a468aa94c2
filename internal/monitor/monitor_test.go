package monitor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"akamaidns/internal/propagate"
	"akamaidns/internal/simtime"
)

// fakeTarget implements Suspender.
type fakeTarget struct {
	suspended bool
	stale     bool
	log       []bool
}

func (f *fakeTarget) SetSuspended(_ simtime.Time, s bool) {
	f.suspended = s
	f.log = append(f.log, s)
}
func (f *fakeTarget) Suspended() bool { return f.suspended }
func (f *fakeTarget) CheckStaleness(now simtime.Time) bool {
	if f.stale {
		f.suspended = true
	}
	return f.stale
}

func TestAgentSuspendsAfterThreshold(t *testing.T) {
	sched := simtime.NewScheduler()
	tgt := &fakeTarget{}
	coord := NewCoordinator(3, 10)
	a := NewAgent(propagate.SimClock{Sched: sched}, DefaultAgentConfig("m1"), tgt, coord)
	healthy := true
	a.AddProbe(Probe{Name: "dns", Run: func(simtime.Time) error {
		if healthy {
			return nil
		}
		return errors.New("no answer")
	}})
	a.Start()
	sched.RunFor(5 * time.Second)
	if tgt.suspended {
		t.Fatal("healthy machine suspended")
	}
	healthy = false
	sched.RunFor(2 * time.Second) // 2 failures < threshold 3
	if tgt.suspended {
		t.Fatal("suspended before threshold")
	}
	sched.RunFor(2 * time.Second)
	if !tgt.suspended {
		t.Fatal("not suspended after threshold")
	}
	if coord.ActiveSuspensions() != 1 {
		t.Fatalf("active = %d", coord.ActiveSuspensions())
	}
	// Recovery after RecoverThreshold passes.
	healthy = true
	sched.RunFor(10 * time.Second)
	if tgt.suspended {
		t.Fatal("not resumed after recovery")
	}
	if coord.ActiveSuspensions() != 0 {
		t.Fatal("slot not released")
	}
	if a.Sweeps == 0 || a.LastFailure == "" {
		t.Fatal("bookkeeping missing")
	}
}

func TestCoordinatorCapsConcurrentSuspensions(t *testing.T) {
	// 10 machines all fail at once; cap is 3: only 3 may suspend. This is
	// the defense against widespread self-suspension (§4.2.1).
	sched := simtime.NewScheduler()
	coord := NewCoordinator(5, 3)
	var targets []*fakeTarget
	for i := 0; i < 10; i++ {
		tgt := &fakeTarget{}
		targets = append(targets, tgt)
		a := NewAgent(propagate.SimClock{Sched: sched}, DefaultAgentConfig(fmt.Sprintf("m%d", i)), tgt, coord)
		a.AddProbe(Probe{Name: "dns", Run: func(simtime.Time) error { return errors.New("bad") }})
		a.Start()
	}
	sched.RunFor(time.Minute)
	suspended := 0
	for _, tgt := range targets {
		if tgt.suspended {
			suspended++
		}
	}
	if suspended != 3 {
		t.Fatalf("suspended = %d, want cap 3", suspended)
	}
	if coord.Denials == 0 {
		t.Fatal("no denials recorded")
	}
}

func TestCoordinatorProtected(t *testing.T) {
	coord := NewCoordinator(3, 10)
	coord.Protect("important")
	if coord.RequestSuspend("important") {
		t.Fatal("protected agent was granted suspension")
	}
	if !coord.RequestSuspend("normal") {
		t.Fatal("normal agent denied with open cap")
	}
}

func TestCoordinatorMajorityRequired(t *testing.T) {
	coord := NewCoordinator(5, 10)
	// Take down 3 of 5 replicas: the 2 reachable cannot form a majority.
	coord.SetReplicaUp(0, false)
	coord.SetReplicaUp(1, false)
	coord.SetReplicaUp(2, false)
	if coord.RequestSuspend("m1") {
		t.Fatal("suspension granted without majority")
	}
	coord.SetReplicaUp(0, true)
	if !coord.RequestSuspend("m1") {
		t.Fatal("suspension denied with majority up")
	}
}

func TestCoordinatorIdempotentGrant(t *testing.T) {
	coord := NewCoordinator(3, 1)
	if !coord.RequestSuspend("m1") {
		t.Fatal("first grant denied")
	}
	// Same agent re-requesting holds its slot and is still granted.
	if !coord.RequestSuspend("m1") {
		t.Fatal("re-grant denied")
	}
	if coord.RequestSuspend("m2") {
		t.Fatal("cap exceeded")
	}
	coord.Release("m1")
	if !coord.RequestSuspend("m2") {
		t.Fatal("slot not freed")
	}
}

func TestAgentCrashHandling(t *testing.T) {
	sched := simtime.NewScheduler()
	tgt := &fakeTarget{}
	a := NewAgent(propagate.SimClock{Sched: sched}, DefaultAgentConfig("m1"), tgt, NewCoordinator(3, 10))
	a.OnCrash(sched.Now(), "sig")
	if !tgt.suspended || !a.HoldingSuspension() {
		t.Fatal("crash did not suspend immediately")
	}
	sched.RunFor(restartDelay - time.Second)
	if !tgt.suspended {
		t.Fatal("machine restored before the restart delay")
	}
	sched.RunFor(2 * time.Second)
	if tgt.suspended {
		t.Fatal("machine not restored after restart delay")
	}
	if a.HoldingSuspension() {
		t.Fatal("slot not released after restart")
	}
}

func TestAgentChecksStalenessEachSweep(t *testing.T) {
	sched := simtime.NewScheduler()
	tgt := &fakeTarget{stale: true}
	a := NewAgent(propagate.SimClock{Sched: sched}, DefaultAgentConfig("m1"), tgt, nil)
	a.Start()
	sched.RunFor(2 * time.Second)
	if !tgt.suspended {
		t.Fatal("stale target not suspended during sweep")
	}
}

func TestAgentStopHaltsSweeps(t *testing.T) {
	sched := simtime.NewScheduler()
	tgt := &fakeTarget{}
	a := NewAgent(propagate.SimClock{Sched: sched}, DefaultAgentConfig("m1"), tgt, nil)
	a.Start()
	sched.RunFor(3 * time.Second)
	before := a.Sweeps
	a.Stop()
	sched.RunFor(10 * time.Second)
	if a.Sweeps != before {
		t.Fatalf("sweeps continued after Stop: %d -> %d", before, a.Sweeps)
	}
	// Start again works.
	a.Start()
	sched.RunFor(2 * time.Second)
	if a.Sweeps == before {
		t.Fatal("sweeps did not resume")
	}
}

func TestAgentWithoutCoordinator(t *testing.T) {
	sched := simtime.NewScheduler()
	tgt := &fakeTarget{}
	a := NewAgent(propagate.SimClock{Sched: sched}, DefaultAgentConfig("m1"), tgt, nil)
	a.AddProbe(Probe{Name: "dns", Run: func(simtime.Time) error { return errors.New("bad") }})
	a.Start()
	sched.RunFor(10 * time.Second)
	if !tgt.suspended {
		t.Fatal("agent without coordinator cannot suspend")
	}
}

func TestAgentRecoveryKeepsStaleMachineSuspended(t *testing.T) {
	// A machine whose inputs went stale while the agent held it suspended
	// stays suspended when the probes pass again, as after a restart.
	sched := simtime.NewScheduler()
	tgt := &fakeTarget{}
	cfg := DefaultAgentConfig("m1")
	cfg.FailThreshold, cfg.RecoverThreshold = 1, 2
	a := NewAgent(propagate.SimClock{Sched: sched}, cfg, tgt, nil)
	healthy := false
	a.AddProbe(Probe{Name: "dns", Run: func(simtime.Time) error {
		if healthy {
			return nil
		}
		return errors.New("no answer")
	}})
	a.Start()
	sched.RunFor(time.Second)
	if !tgt.suspended {
		t.Fatal("failing probe did not suspend")
	}
	healthy, tgt.stale = true, true
	sched.RunFor(3 * time.Second)
	if !tgt.suspended || a.HoldingSuspension() {
		t.Fatalf("after recovery while stale: suspended=%v holding=%v, want true, false", tgt.suspended, a.HoldingSuspension())
	}
}
