// Package monitor implements §4.2's failure-resiliency machinery: the
// on-machine monitoring agent that continually tests its nameserver and
// triggers BGP withdrawal via self-suspension, and the Monitoring/Automated
// Recovery coordinator that bounds concurrent suspensions with a
// majority-vote consensus so widespread failures (or a buggy monitoring
// agent) cannot withdraw the whole platform.
package monitor

import (
	"fmt"
	"sync"
	"time"

	"akamaidns/internal/propagate"
	"akamaidns/internal/simtime"
)

// Suspender is the machine the agent drives: the simulated
// nameserver.Server, or the socket server netserve.Server.
type Suspender interface {
	SetSuspended(now simtime.Time, suspended bool)
	Suspended() bool
	CheckStaleness(now simtime.Time) bool
}

// Probe is one health test: a DNS query for a hosted zone, a regression test
// for a known failure case, etc. It returns nil when healthy.
type Probe struct {
	Name string
	Run  func(now simtime.Time) error
}

// Coordinator is the consensus service bounding concurrent suspensions.
// Suspension permission requires a reachable majority of replicas, and the
// decision is taken against the quorum's combined view of active
// suspensions: local per-replica counts alone are not enough, because
// replicas that missed grants while unreachable would happily vote the cap
// away (each under cap while their union is at it). Every grant is recorded
// on at least a majority, any two majorities intersect, and recovering
// replicas resync from the quorum, so the union view always covers every
// outstanding suspension.
type Coordinator struct {
	mu       sync.Mutex
	replicas []*replica
	cap      int
	// Protected agents may never self-suspend (§4.2.1: "preventing
	// self-suspension on some nameservers").
	protected map[string]bool
	// Grants / Denials count decisions for instrumentation.
	Grants, Denials uint64
}

type replica struct {
	up     bool
	active map[string]bool // agent IDs this replica believes are suspended
}

// Cap reports the global bound on concurrent suspensions.
func (c *Coordinator) Cap() int { return c.cap }

// NewCoordinator builds a coordinator with n replicas and the given cap on
// concurrent suspensions.
func NewCoordinator(nReplicas, cap int) *Coordinator {
	if nReplicas < 1 {
		panic("monitor: need at least one replica")
	}
	c := &Coordinator{cap: cap, protected: make(map[string]bool)}
	for i := 0; i < nReplicas; i++ {
		c.replicas = append(c.replicas, &replica{up: true, active: make(map[string]bool)})
	}
	return c
}

// SetReplicaUp changes a replica's availability (for failure injection).
// A replica coming back up resyncs its active set from the quorum — it
// keeps its own memory and unions in every suspension its reachable peers
// know about, so grants it missed while down are not voted away later.
func (c *Coordinator) SetReplicaUp(i int, up bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replicas[i]
	if up && !r.up {
		for _, o := range c.replicas {
			if o == r || !o.up {
				continue
			}
			for id := range o.active {
				r.active[id] = true
			}
		}
	}
	r.up = up
}

// quorumView merges the active sets of all reachable replicas. Because
// every grant was recorded on a majority and majorities intersect, the
// merged view covers every outstanding suspension whenever a majority is
// reachable.
func (c *Coordinator) quorumViewLocked() map[string]bool {
	view := make(map[string]bool)
	for _, r := range c.replicas {
		if !r.up {
			continue
		}
		for id := range r.active {
			view[id] = true
		}
	}
	return view
}

// RequestSuspend runs a consensus round asking to suspend agentID. It
// reports whether the quorum granted: a majority of ALL replicas must be
// reachable (a partitioned minority cannot grant suspensions), and the
// quorum's combined view of active suspensions must be below the cap.
func (c *Coordinator) RequestSuspend(agentID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.protected[agentID] {
		c.Denials++
		return false
	}
	avail := 0
	for _, r := range c.replicas {
		if r.up {
			avail++
		}
	}
	if avail*2 <= len(c.replicas) {
		c.Denials++
		return false
	}
	view := c.quorumViewLocked()
	if !view[agentID] && len(view) >= c.cap {
		c.Denials++
		return false
	}
	for _, r := range c.replicas {
		if r.up {
			r.active[agentID] = true
		}
	}
	c.Grants++
	return true
}

// Release frees agentID's suspension slot on every replica, reachable or
// not — the release is durable, like a write to the consensus log that
// down replicas replay on recovery. (Leaving stale entries on down
// replicas would only make the coordinator more conservative, but it would
// leak slots forever if the holder released during a replica outage.)
func (c *Coordinator) Release(agentID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		delete(r.active, agentID)
	}
}

// ActiveSuspensions reports the size of the quorum's combined view —
// the conservative count the grant decision itself uses.
func (c *Coordinator) ActiveSuspensions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.quorumViewLocked())
}

// AgentConfig tunes one monitoring agent.
type AgentConfig struct {
	ID string
	// Interval between health-test sweeps.
	Interval time.Duration
	// FailThreshold consecutive failing sweeps trigger suspension.
	FailThreshold int
	// RecoverThreshold consecutive passing sweeps lift it.
	RecoverThreshold int
}

// restartDelay is the process restart time after a crash.
const restartDelay = 5 * time.Second

// DefaultAgentConfig returns production-flavoured timing.
func DefaultAgentConfig(id string) AgentConfig {
	return AgentConfig{
		ID:               id,
		Interval:         time.Second,
		FailThreshold:    3,
		RecoverThreshold: 5,
	}
}

// Agent is the on-machine monitoring agent of Figure 6: the one code path
// that suspends or resumes its machine. Its clock decides where it runs — a
// propagate.SimClock inside the simulation, a propagate.WallClock beside
// the socket server, whose timers fire on their own goroutines; everything
// a sweep touches is guarded by mu.
type Agent struct {
	Cfg    AgentConfig
	target Suspender
	coord  *Coordinator
	clock  propagate.Clock

	mu          sync.Mutex
	probes      []Probe
	consecFail  int
	consecOK    int
	suspendedBy bool // we hold a suspension slot
	suspensions uint64
	// run is the live sweep loop; nil while stopped. A timer that fires
	// for a loop Stop has replaced neither sweeps nor re-arms.
	run *sweepLoop

	// LastFailure records the most recent failing probe for the NOCC
	// alert stream.
	LastFailure string
	// Sweeps counts health sweeps run.
	Sweeps uint64
}

// sweepLoop is one Start..Stop run of sweeps: the cancel of its pending
// timer.
type sweepLoop struct{ cancel func() }

// NewAgent attaches an agent to its machine.
func NewAgent(clock propagate.Clock, cfg AgentConfig, target Suspender, coord *Coordinator) *Agent {
	return &Agent{Cfg: cfg, target: target, coord: coord, clock: clock}
}

// AddProbe registers a health test.
func (a *Agent) AddProbe(p Probe) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.probes = append(a.probes, p)
}

// Start begins periodic sweeps, the first one Interval from now.
func (a *Agent) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.run == nil {
		a.run = &sweepLoop{}
		a.armLocked(a.run)
	}
}

// armLocked schedules loop's next sweep. The sweep re-arms after it runs,
// as simtime.Ticker does, so on a SimClock the events fall in the order a
// ticker's would.
func (a *Agent) armLocked(loop *sweepLoop) {
	loop.cancel = a.clock.After(a.Cfg.Interval, func(now simtime.Time) {
		a.mu.Lock()
		live := a.run == loop
		a.mu.Unlock()
		if !live {
			return
		}
		a.sweep(now)
		a.mu.Lock()
		if a.run == loop {
			a.armLocked(loop)
		}
		a.mu.Unlock()
	})
}

// Stop halts sweeps.
func (a *Agent) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.run != nil {
		a.run.cancel()
		a.run = nil
	}
}

// Suspensions counts the times the agent has suspended its machine.
func (a *Agent) Suspensions() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.suspensions
}

// sweep runs the full test suite once.
func (a *Agent) sweep(now simtime.Time) {
	a.mu.Lock()
	probes := append([]Probe(nil), a.probes...)
	a.Sweeps++
	a.mu.Unlock()

	// Staleness is part of every sweep (§4.2.2); the target self-suspends
	// internally when stale.
	stale := a.target.CheckStaleness(now)

	var failure string
	for _, p := range probes {
		if err := p.Run(now); err != nil {
			failure = fmt.Sprintf("%s: %v", p.Name, err)
			break
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if failure != "" {
		a.LastFailure = failure
		a.consecFail++
		a.consecOK = 0
		if a.consecFail >= a.Cfg.FailThreshold && !a.suspendedBy {
			if a.coord == nil || a.coord.RequestSuspend(a.Cfg.ID) {
				a.suspendedBy = true
				a.suspensions++
				a.target.SetSuspended(now, true)
			}
		}
		return
	}
	a.consecOK++
	a.consecFail = 0
	if a.suspendedBy && a.consecOK >= a.Cfg.RecoverThreshold {
		a.suspendedBy = false
		// As after a restart: a machine whose inputs went stale while it
		// was suspended stays suspended, now by staleness.
		if !stale {
			a.target.SetSuspended(now, false)
		}
		if a.coord != nil {
			a.coord.Release(a.Cfg.ID)
		}
	}
}

// OnCrash is wired to the nameserver's crash hook: the agent detects the
// dead process, suspends immediately (no threshold), and schedules the
// restart.
func (a *Agent) OnCrash(now simtime.Time, sig string) {
	a.mu.Lock()
	a.LastFailure = "crash: " + sig
	// Reset the health streaks: the OK run that preceded the crash says
	// nothing about the restarting process, and leaving it in place would
	// let the very next sweep lift the suspension long before restartDelay.
	a.consecOK = 0
	a.consecFail = 0
	already := a.suspendedBy
	if !already {
		// Crashes bypass the consensus gate: a dead process cannot answer
		// regardless; the coordinator is still informed so the cap tracks
		// reality.
		a.suspendedBy = true
		a.suspensions++
	}
	a.mu.Unlock()
	if !already {
		if a.coord != nil {
			a.coord.RequestSuspend(a.Cfg.ID) // best effort bookkeeping
		}
		a.target.SetSuspended(now, true)
	}
	a.clock.After(restartDelay, func(t simtime.Time) {
		a.mu.Lock()
		wasSuspended := a.suspendedBy
		a.suspendedBy = false
		a.consecFail = 0
		a.consecOK = 0
		a.mu.Unlock()
		if wasSuspended {
			// The restarted process re-validates its inputs before it may
			// advertise: if its metadata went stale while it was down, the
			// staleness suspension takes over instead of the machine
			// returning to service with old zones.
			if !a.target.CheckStaleness(t) {
				a.target.SetSuspended(t, false)
			}
			if a.coord != nil {
				a.coord.Release(a.Cfg.ID)
			}
		}
	})
}
