// Package chaos is a deterministic, seeded fault-injection harness that
// drives the full simulated platform (core.Platform + netsim + bgp +
// monitor) through scripted and randomized fault schedules — link flaps and
// regional partitions, PoP withdrawal and loss, machine crashes via
// query-of-death, suspension storms against the coordinator, attack floods,
// and zone-propagation stalls — while a resolver-side workload keeps
// querying every enterprise. After every injected event, invariant checkers
// assert the paper's resilience properties (§4.1–§4.3):
//
//   - delegation-coverage: every enterprise's delegation set retains at
//     least one reachable cloud;
//   - suspension-cap: the monitoring coordinator never grants suspensions
//     beyond its capacity floor, and the platform always keeps at least one
//     serving machine;
//   - failover-envelope: application-layer failover (the client rotating
//     through its delegation set) completes within the Figure 8 envelope;
//   - stale-serve / stale-suspend: answers are never served from state
//     older than the staleness window (input-delayed machines get the
//     input-delay allowance), and a machine whose inputs have gone stale
//     self-suspends promptly.
//
// Everything — topology, workload, fault schedule, event interleaving — is
// derived from one seed on a single-threaded virtual clock, so the event
// log of a run is byte-identical across runs with the same seed, and any
// violation reduces to a minimal reproducer: seed + event index.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"akamaidns/internal/core"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives every random choice: topology, fault schedule, attack
	// payloads. Equal seeds give byte-identical event logs.
	Seed int64
	// Scenario names the fault schedule; see Scenarios().
	Scenario string
	// FaultWindow is the span faults are injected into; the run then keeps
	// the workload going for drain so late faults can heal.
	FaultWindow time.Duration
}

// DefaultConfig returns the "mixed" scenario at seed 1 with two minutes of
// faults.
func DefaultConfig() Config {
	return Config{Seed: 1, Scenario: "mixed", FaultWindow: 2 * time.Minute}
}

// A run's fixed operating point: a laptop-scale platform of 12 PoPs with
// two regular machines each (plus the input-delayed ones), four
// enterprises and four vantage points.
const (
	numPoPs        = 12
	machinesPerPoP = 2
	enterprises    = 4
	clients        = 4
	// suspensionCap bounds coordinator grants: a quarter of the regulars.
	suspensionCap = numPoPs * machinesPerPoP / 4
	// drain keeps the workload going after the fault window so late
	// faults can heal.
	drain = 2 * time.Minute
	// queryEvery paces each (client, enterprise) probe; probeTimeout
	// bounds one probe.
	queryEvery   = 500 * time.Millisecond
	probeTimeout = 2 * time.Second
	// envelope is the longest application-layer failover the Figure 8
	// invariant allows.
	envelope = 90 * time.Second
	// staleWindow is every machine's nameserver StaleAfter (§4.2.2);
	// staleGrace is the detection and propagation slack on top of it.
	staleWindow = 20 * time.Second
	staleGrace  = 10 * time.Second
	// checkEvery paces the periodic invariant sweep.
	checkEvery = 5 * time.Second
	// heartbeatEvery paces the zone-serial heartbeat that keeps the
	// metadata staleness machinery live.
	heartbeatEvery = 5 * time.Second
)

// Violation is one invariant breach, pinned to the event-log index where it
// was detected so a reproducer is just (seed, index).
type Violation struct {
	EventIndex int
	Time       simtime.Time
	Invariant  string
	Detail     string
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d @%s %s: %s", v.EventIndex, v.Time, v.Invariant, v.Detail)
}

// Result summarizes one chaos run.
type Result struct {
	Scenario   string
	Seed       int64
	Events     int
	Probes     int
	Failures   int
	Outages    int
	Violations []Violation
	// Log is the full event log; byte-identical across runs with the same
	// seed and config.
	Log []byte
	// Reproducer is the command that replays the first violation; empty
	// when the run was clean.
	Reproducer string
}

// probePair tracks one (client, enterprise) workload stream and its
// application-layer failover state.
type probePair struct {
	client   *chaosClient
	ent      *core.Enterprise
	qname    dnswire.Name
	cloudIdx int
	// down/failSince track the current outage; reported guards one
	// envelope violation per outage.
	down      bool
	failSince simtime.Time
	reported  bool
	successes int
	failures  int
	outages   int
}

type chaosClient struct {
	c      *core.Client
	region string
	pairs  []*probePair
}

// Harness holds one run's state. Scenario functions schedule faults on it.
type Harness struct {
	cfg Config
	p   *core.Platform
	rng *rand.Rand

	log    bytes.Buffer
	events int

	violations []Violation

	start simtime.Time // virtual time faults are scheduled relative to
	end   simtime.Time // workload/checker stop time

	machByID map[string]*core.PlatformMachine
	regulars []*core.PlatformMachine
	coreSet  map[netsim.NodeID]bool

	clients []*chaosClient
	ents    []*core.Enterprise

	// excuseUntil is the end of the current global excuse window:
	// region-scale partitions make outages expected, so envelope checks
	// are skipped until the partition heals (and outage clocks restart
	// at the heal, matching the paper's "BGP heals, then the application
	// recovers" order).
	excuseUntil simtime.Time

	injectPort uint16

	// churn is the control-plane churn tracker; nil unless the scenario
	// injects zone churn (see churn.go).
	churn *churnTracker
}

const chaosZone = `
$TTL 300
@    IN SOA ns1.ent.test. host.ent.test. ( 1 3600 600 604800 30 )
www  IN A 192.0.2.80
api  IN A 192.0.2.81
`

// Run executes one chaos run to completion and reports the result. The
// error return covers setup problems (bad scenario name, platform assembly);
// invariant breaches are data, in Result.Violations.
func Run(cfg Config) (*Result, error) {
	scn, ok := scenarios[cfg.Scenario]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", cfg.Scenario, Scenarios())
	}

	opts := core.DefaultOptions()
	opts.Seed = cfg.Seed
	opts.PullPropagation = pullScenarios[cfg.Scenario]
	opts.NumPoPs = numPoPs
	opts.MachinesPerPoP = machinesPerPoP
	opts.InputDelayed = true
	opts.StartAgents = true
	opts.EnableFilters = true
	opts.QoDFirewallFraction = 0.5
	opts.SuspensionCap = suspensionCap
	opts.ServerConfig = func(id string) nameserver.Config {
		c := nameserver.DefaultConfig(id)
		// Small enough that attack floods exert real queue pressure at
		// simulation-scale rates.
		c.ComputeQPS = 2500
		c.IOQPS = 25000
		c.StaleAfter = staleWindow
		return c
	}
	p, err := core.New(opts)
	if err != nil {
		return nil, err
	}

	h := &Harness{
		cfg: cfg, p: p,
		// The harness rng is separate from the platform's: fault schedules
		// must not perturb topology generation and vice versa.
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		machByID: make(map[string]*core.PlatformMachine),
		coreSet:  make(map[netsim.NodeID]bool),
	}
	for _, m := range p.Machines {
		h.machByID[m.ID] = m
		if !m.Delayed() {
			h.regulars = append(h.regulars, m)
		}
		// Narrate machine-level effects in the event log: suspensions
		// (agent, staleness, or storm) and query-of-death crashes.
		m := m
		prevSusp := m.Server.OnSuspendChange
		m.Server.OnSuspendChange = func(now simtime.Time, suspended bool) {
			if prevSusp != nil {
				prevSusp(now, suspended)
			}
			h.logf("suspend", "%s %s", m.ID, upDown(!suspended))
		}
		prevCrash := m.Server.OnCrash
		m.Server.OnCrash = func(now simtime.Time, sig string) {
			h.logf("crash", "%s signature %q", m.ID, sig)
			if prevCrash != nil {
				prevCrash(now, sig)
			}
		}
	}
	for _, nd := range p.Topo.Core {
		h.coreSet[nd.ID] = true
	}

	// Onboard enterprises and vantage points.
	for i := 0; i < enterprises; i++ {
		origin := dnswire.MustName(fmt.Sprintf("ent%d.example.test", i))
		ent, err := p.AddEnterprise(fmt.Sprintf("ent%d", i), origin, chaosZone)
		if err != nil {
			return nil, err
		}
		h.ents = append(h.ents, ent)
	}
	regions := p.Topo.Regions
	for i := 0; i < clients; i++ {
		rg := regions[i%len(regions)].Name
		cc := &chaosClient{c: p.AddClient(fmt.Sprintf("vp%d", i), rg), region: rg}
		for _, ent := range h.ents {
			qn, err := ent.Zones[0].Prepend("www")
			if err != nil {
				return nil, err
			}
			cc.pairs = append(cc.pairs, &probePair{client: cc, ent: ent, qname: qn})
		}
		h.clients = append(h.clients, cc)
	}

	// The metadata heartbeat must run from the very beginning: zone inputs
	// older than staleWindow trigger self-suspension, so a late-starting
	// publisher would mass-suspend the fleet during convergence.
	h.startHeartbeat()

	// Let BGP settle before any measurement starts.
	p.Converge(time.Minute)
	h.start = p.Sched.Now()
	h.end = h.start.Add(cfg.FaultWindow + drain)

	h.startWorkload()
	h.startChecker()
	h.logf("run", "scenario=%s seed=%d pops=%d machines=%d ents=%d clients=%d cap=%d",
		cfg.Scenario, cfg.Seed, len(p.PoPs), len(p.Machines), len(h.ents), len(h.clients), p.Coord.Cap())
	scn(h)

	p.Sched.RunUntil(h.end)
	h.finalCheck()

	var probes, failures, outages int
	for _, cc := range h.clients {
		for _, pp := range cc.pairs {
			probes += pp.successes + pp.failures
			failures += pp.failures
			outages += pp.outages
		}
	}
	answered, _, received := p.TotalAnswered()
	var crashes, suspensions uint64
	for _, m := range p.Machines {
		s := m.Server.Snapshot()
		crashes += s.Crashes
		suspensions += s.Suspensions
	}
	h.logf("summary", "probes=%d failed=%d outages=%d answered=%d received=%d crashes=%d suspensions=%d violations=%d",
		probes, failures, outages, answered, received, crashes, suspensions, len(h.violations))

	res := &Result{
		Scenario:   cfg.Scenario,
		Seed:       cfg.Seed,
		Events:     h.events,
		Probes:     probes,
		Failures:   failures,
		Outages:    outages,
		Violations: h.violations,
		Log:        append([]byte(nil), h.log.Bytes()...),
	}
	if len(h.violations) > 0 {
		res.Reproducer = fmt.Sprintf(
			"go test ./internal/chaos -run 'TestScenarios/%s' -chaos.seed=%d  # first violation at event %d",
			cfg.Scenario, cfg.Seed, h.violations[0].EventIndex)
	}
	return res, nil
}

// Lines renders the run as cmd/chaos prints it: one "ok" line when it was
// clean; otherwise a "FAIL" line, one line per violation and the
// reproducer.
func (r *Result) Lines() string {
	if len(r.Violations) == 0 {
		return fmt.Sprintf("ok   %-16s seed=%-6d events=%-4d probes=%-5d failed=%-3d outages=%d\n",
			r.Scenario, r.Seed, r.Events, r.Probes, r.Failures, r.Outages)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "FAIL %-16s seed=%-6d %d violations\n", r.Scenario, r.Seed, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "     %s\n", v)
	}
	fmt.Fprintf(&b, "     reproduce: %s\n", r.Reproducer)
	return b.String()
}

// logf appends one numbered line to the event log. Every line is derived
// from deterministic state only (no map iteration, no wall clock), which is
// what makes same-seed logs byte-identical.
func (h *Harness) logf(kind, format string, args ...any) int {
	idx := h.events
	h.events++
	fmt.Fprintf(&h.log, "[%04d] %-12s %-14s %s\n", idx, h.p.Sched.Now(), kind, fmt.Sprintf(format, args...))
	return idx
}

// violate records an invariant breach at the current event index.
func (h *Harness) violate(invariant, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	idx := h.logf("VIOLATION", "%s: %s", invariant, detail)
	h.violations = append(h.violations, Violation{
		EventIndex: idx, Time: h.p.Sched.Now(), Invariant: invariant, Detail: detail,
	})
}

// startHeartbeat swaps in the next version of a rotating enterprise zone —
// the same records at serial+1 — and publishes the update, keeping the
// §4.2.2 input-staleness machinery exercised: machines whose subscriptions
// stall will see their input age grow past staleWindow.
func (h *Harness) startHeartbeat() {
	beat := 0
	h.p.Sched.Every(heartbeatEvery, func(now simtime.Time) {
		if h.end != 0 && now >= h.end {
			return
		}
		ent := h.ents[beat%len(h.ents)]
		beat++
		z := h.p.Store.Get(ent.Zones[0])
		if z == nil {
			return
		}
		serial := z.Serial()
		next, err := zone.Apply(z, zone.Delta{FromSerial: serial, ToSerial: serial + 1})
		if err != nil {
			return // no SOA: the zone has no serial to bump
		}
		h.p.Store.Put(next)
		h.p.Bus.Publish(core.TopicZones, fmt.Sprintf("zone:%s:serial:%d", ent.Zones[0], next.Serial()))
	})
}

// startWorkload launches one self-paced probe loop per (client, enterprise)
// pair, staggered so the pairs don't query in lockstep.
func (h *Harness) startWorkload() {
	i := 0
	for _, cc := range h.clients {
		for _, pp := range cc.pairs {
			pp := pp
			offset := time.Duration(i) * 37 * time.Millisecond
			i++
			h.p.Sched.After(offset, func(simtime.Time) { h.probeOnce(pp) })
		}
	}
}

// probeOnce fires one query at the pair's current delegation-set cloud and
// reschedules itself from the response (or timeout). The cloud rotates
// round-robin on every probe — the way a resolver spreads queries over a
// zone's NS set — so all six clouds of every delegation set stay under
// continuous test; a failure additionally advances the rotation (failover).
func (h *Harness) probeOnce(pp *probePair) {
	if h.p.Sched.Now() >= h.end {
		return
	}
	ds := pp.ent.DelegationSet
	pp.cloudIdx++
	cloud := ds[pp.cloudIdx%len(ds)]
	pp.client.c.Probe(cloud, pp.qname, dnswire.TypeA, probeTimeout, func(now simtime.Time, resp *pop.DNSResponse) {
		if resp != nil && resp.Msg != nil && resp.Msg.RCode == dnswire.RCodeNoError && len(resp.Msg.Answers) > 0 {
			h.probeSucceeded(pp, now, resp)
		} else {
			h.probeFailed(pp, now)
		}
		h.p.Sched.After(queryEvery, func(simtime.Time) { h.probeOnce(pp) })
	})
}

func (h *Harness) probeSucceeded(pp *probePair, now simtime.Time, resp *pop.DNSResponse) {
	pp.successes++
	if pp.down {
		outage := now.Sub(pp.failSince)
		pp.down = false
		pp.outages++
		h.logf("recovered", "%s/%s after %s (rotated to cloud idx %d, served by %s)",
			pp.client.c.Name, pp.ent.Name, outage, pp.cloudIdx%len(pp.ent.DelegationSet), resp.Machine)
		if outage > envelope && now > h.excuseUntil && !pp.reported {
			h.violate("failover-envelope", "%s/%s outage %s exceeds envelope %s",
				pp.client.c.Name, pp.ent.Name, outage, envelope)
		}
		pp.reported = false
	}
	h.checkStaleServe(pp, now, resp)
	h.checkChurnAnswer(pp, now, resp)
}

func (h *Harness) probeFailed(pp *probePair, now simtime.Time) {
	pp.failures++
	if !pp.down {
		pp.down = true
		pp.failSince = now
		pp.reported = false
	}
	// Application-layer failover: rotate to the next cloud of the
	// delegation set (the resolver picking another NS, §4.1 / Fig 8).
	pp.cloudIdx++
}

func upDown(up bool) string {
	if up {
		return "up"
	}
	return "down"
}
