package nameserver

import (
	"fmt"
	"sync"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/obs"
	"akamaidns/internal/pubsub"
	"akamaidns/internal/qod"
	"akamaidns/internal/queue"
	"akamaidns/internal/simtime"
)

// Config tunes one simulated nameserver machine.
type Config struct {
	// ID names the machine in metrics and health reports.
	ID string
	// ComputeQPS is the answering capacity (queries/second) — the resource
	// that saturates first for application-layer attacks (§4.3.4).
	ComputeQPS float64
	// IOQPS is the socket-read capacity; beyond it queries drop below the
	// application (region A > A2 of Figure 10).
	IOQPS float64
	// IOBurst sizes the socket buffer in seconds of IOQPS.
	IOBurst float64
	// Queues configures the penalty ladder.
	Queues queue.Config
	// QoDFirewall enables §4.2.4 containment through a qod.Quarantine
	// (deployed on a subset of nameservers in production).
	QoDFirewall bool
	// TQoD is the quarantine TTL: a signature blocks for TQoD, then lets one
	// probe through, so false positives are retried.
	TQoD time.Duration
	// StaleAfter is the metadata staleness threshold that triggers
	// self-suspension; zero disables the check.
	StaleAfter time.Duration
	// NoStalenessSuspend marks input-delayed nameservers, which never
	// self-suspend due to input staleness (§4.2.3).
	NoStalenessSuspend bool
}

// DefaultConfig returns a modestly-sized machine.
func DefaultConfig(id string) Config {
	return Config{
		ID:         id,
		ComputeQPS: 50_000,
		IOQPS:      250_000,
		IOBurst:    0.05,
		Queues:     queue.DefaultConfig(),
		TQoD:       10 * time.Minute,
		StaleAfter: 30 * time.Second,
	}
}

// Request is one in-flight query in the simulation.
type Request struct {
	Resolver string
	ASN      int
	IPTTL    int
	Msg      *dnswire.Message
	// Legit is ground truth for experiments (never visible to filters).
	Legit bool
	// Respond receives the response; nil responses indicate a drop or
	// crash (the resolver would time out).
	Respond func(now simtime.Time, resp *dnswire.Message)

	// fq is the filter-visible view of the request, built once by Receive.
	fq filters.Query
	// probation is the quarantine entry this request probes, if any.
	probation *qod.Entry
}

// filterQuery is the filter-visible view of the request at time now, its
// zone left for the caller to fill in.
func (r *Request) filterQuery(now simtime.Time) filters.Query {
	fq := filters.Query{Resolver: r.Resolver, ASN: r.ASN, IPTTL: r.IPTTL, Now: now}
	if len(r.Msg.Questions) == 1 {
		name := r.Msg.Questions[0].Name
		fq.Qname, fq.Type = name.AppendWire(make([]byte, 0, name.WireLen())), r.Msg.Questions[0].Type
	}
	return fq
}

// Metrics is a point-in-time copy of server activity counters (the
// bespoke-struct view; the live counters are obs series on Obs()).
type Metrics struct {
	Received      uint64
	IODropped     uint64
	Discarded     uint64 // score >= Smax
	TailDropped   uint64
	Answered      uint64
	AnsweredLegit uint64
	ReceivedLegit uint64
	NXDomain      uint64
	Crashes       uint64
	QoDBlocked    uint64
	Suspensions   uint64
}

// serverMetrics holds the live registry-backed counters behind Metrics.
type serverMetrics struct {
	received      *obs.Counter
	ioDropped     *obs.Counter
	discarded     *obs.Counter
	tailDropped   *obs.Counter
	answered      *obs.Counter
	answeredLegit *obs.Counter
	receivedLegit *obs.Counter
	nxdomain      *obs.Counter
	crashes       *obs.Counter
	qodBlocked    *obs.Counter
	suspensions   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		received:      reg.Counter(obs.MetricReceivedTotal, "Queries delivered to the machine."),
		ioDropped:     reg.Counter(obs.MetricIODroppedTotal, "Queries dropped below the application by the socket leaky bucket."),
		discarded:     reg.Counter(obs.MetricDiscardedTotal, "Queries discarded by the scoring pipeline at S >= Smax."),
		tailDropped:   reg.Counter(obs.MetricTailDroppedTotal, "Queries dropped because their penalty queue was full."),
		answered:      reg.Counter(obs.MetricAnsweredTotal, "Queries answered."),
		answeredLegit: reg.Counter(obs.MetricAnsweredLegit, "Ground-truth legitimate queries answered (experiments only)."),
		receivedLegit: reg.Counter(obs.MetricReceivedLegit, "Ground-truth legitimate queries received (experiments only)."),
		nxdomain:      reg.Counter(obs.MetricNXDomainTotal, "NXDOMAIN answers."),
		crashes:       reg.Counter(obs.MetricCrashesTotal, "Process crashes (query-of-death kills)."),
		qodBlocked:    reg.Counter(obs.MetricQoDBlockedTotal, "Queries dropped by the query-of-death quarantine."),
		suspensions:   reg.Counter(obs.MetricSuspensionsTotal, "Self-suspension transitions."),
	}
}

// Server is one simulated nameserver machine: IO admission, scoring,
// penalty queues, a compute pump, QoD containment, staleness tracking.
type Server struct {
	Cfg    Config
	Engine *Engine
	// Pipeline scores every query and is told of every answer.
	Pipeline *filters.Pipeline

	sched  *simtime.Scheduler
	queues queue.Interface

	mu        sync.Mutex
	suspended bool
	// staleSuspended marks a suspension caused by input staleness; it is
	// lifted automatically once fresh inputs arrive (§4.2.2: the
	// nameserver has stale state "for a brief period until catching up").
	staleSuspended bool
	// ioLevel/ioLast implement the socket leaky bucket.
	ioLevel float64
	ioLast  simtime.Time
	// pumpBusy marks an armed compute event.
	pumpBusy bool
	// lastInput per metadata topic for staleness checks.
	lastInput map[pubsub.Topic]simtime.Time

	// quarantine holds the query-of-death signatures the firewall blocks
	// (nil without QoDFirewall).
	quarantine *qod.Quarantine

	// OnCrash is invoked (post-restart bookkeeping) when a QoD kills the
	// process, with the crashing query's name; the monitoring agent hooks
	// this.
	OnCrash func(now simtime.Time, sig string)
	// OnSuspendChange observes suspension transitions; the BGP speaker
	// hooks this to withdraw/re-advertise.
	OnSuspendChange func(now simtime.Time, suspended bool)

	// reg is the machine's metric registry (Figure 5's on-machine view);
	// met holds the hot-path counter handles registered on it.
	reg *obs.Registry
	met serverMetrics
}

// NewServer builds a simulated machine over the engine.
func NewServer(sched *simtime.Scheduler, cfg Config, eng *Engine, pipe *filters.Pipeline) *Server {
	var q queue.Interface
	qq, err := queue.New(cfg.Queues)
	if err != nil {
		panic(err)
	}
	q = qq
	reg := obs.NewRegistry()
	qq.Instrument(reg)
	s := &Server{
		Cfg: cfg, Engine: eng, Pipeline: pipe, sched: sched, queues: q,
		lastInput: make(map[pubsub.Topic]simtime.Time),
		reg:       reg,
		met:       newServerMetrics(reg),
	}
	if cfg.QoDFirewall {
		if cfg.TQoD <= 0 {
			panic(fmt.Sprintf("nameserver: %s: QoDFirewall needs a positive TQoD, have %v", cfg.ID, cfg.TQoD))
		}
		s.quarantine = qod.NewQuarantine(qod.DefaultQuarantineMax, cfg.TQoD)
	}
	return s
}

// qodEpoch is the wall time simtime 0 maps onto for the quarantine, whose
// clock is a time.Time.
var qodEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// Quarantine exposes the query-of-death quarantine (nil without
// QoDFirewall).
func (s *Server) Quarantine() *qod.Quarantine { return s.quarantine }

// Obs exposes the machine's metric registry — the snapshot source for the
// Figure-5 Data Collection/Aggregation loop and any exposition endpoint.
func (s *Server) Obs() *obs.Registry { return s.reg }

// UseFIFO swaps the penalty ladder for a single FIFO queue (the Figure 10
// "w/o filter" ablation). Must be called before traffic starts.
func (s *Server) UseFIFO() {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.Cfg.Queues.Capacity * len(s.Cfg.Queues.MaxScores)
	s.queues = queue.NewFIFO(total)
}

// Suspended reports whether the machine has withdrawn itself.
func (s *Server) Suspended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suspended
}

// SetSuspended transitions suspension state, notifying the hook on change.
// Suspension drains pending queries (the resolver retries elsewhere).
func (s *Server) SetSuspended(now simtime.Time, suspended bool) {
	s.mu.Lock()
	if s.suspended == suspended {
		s.mu.Unlock()
		return
	}
	s.suspended = suspended
	if suspended {
		s.met.suspensions.Inc()
	}
	hook := s.OnSuspendChange
	s.mu.Unlock()
	if suspended {
		s.queues.Drain()
	}
	if hook != nil {
		hook(now, suspended)
	}
}

// RecordInput notes metadata arrival on a topic (wired to pubsub
// subscriptions).
func (s *Server) RecordInput(topic pubsub.Topic, now simtime.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastInput[topic] = now
}

// InputAge reports how stale a topic's metadata is.
func (s *Server) InputAge(topic pubsub.Topic, now simtime.Time) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.lastInput[topic]
	if !ok {
		return 0, false
	}
	return now.Sub(t), true
}

// Stale reports whether any tracked critical input is older than the
// staleness threshold, without the self-suspension side effects of
// CheckStaleness. Invariant checkers use it to distinguish "should have
// suspended by now" from "did suspend". Always false for machines whose
// config disables the staleness check (input-delayed nameservers).
func (s *Server) Stale(now simtime.Time) bool {
	if s.Cfg.NoStalenessSuspend || s.Cfg.StaleAfter == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.lastInput {
		if now.Sub(t) > s.Cfg.StaleAfter {
			return true
		}
	}
	return false
}

// CheckStaleness implements §4.2.2: if any tracked critical input is older
// than the threshold the machine self-suspends. Input-delayed nameservers
// never do. It reports whether the server is (now) suspended by staleness.
func (s *Server) CheckStaleness(now simtime.Time) bool {
	if s.Cfg.NoStalenessSuspend || s.Cfg.StaleAfter == 0 {
		return false
	}
	s.mu.Lock()
	stale := false
	for _, t := range s.lastInput {
		if now.Sub(t) > s.Cfg.StaleAfter {
			stale = true
			break
		}
	}
	wasStaleSuspended := s.staleSuspended
	s.staleSuspended = stale
	s.mu.Unlock()
	if stale {
		s.SetSuspended(now, true)
	} else if wasStaleSuspended {
		// Inputs caught up: lift the staleness suspension.
		s.SetSuspended(now, false)
	}
	return stale
}

// Receive is the ingress path: IO admission, QoD firewall, scoring, and
// enqueueing. Processing happens asynchronously at ComputeQPS.
func (s *Server) Receive(now simtime.Time, req *Request) {
	s.mu.Lock()
	if s.suspended {
		s.mu.Unlock()
		return // withdrawn: router no longer delivers, packet goes elsewhere
	}
	s.met.received.Inc()
	if req.Legit {
		s.met.receivedLegit.Inc()
	}
	// Socket leaky bucket.
	if s.Cfg.IOQPS > 0 {
		elapsed := now.Sub(s.ioLast).Seconds()
		if elapsed > 0 {
			s.ioLevel -= elapsed * s.Cfg.IOQPS
			if s.ioLevel < 0 {
				s.ioLevel = 0
			}
			s.ioLast = now
		}
		s.ioLevel++
		if s.ioLevel > s.Cfg.IOQPS*s.Cfg.IOBurst {
			s.ioLevel = s.Cfg.IOQPS * s.Cfg.IOBurst
			s.met.ioDropped.Inc()
			s.mu.Unlock()
			return
		}
	}
	s.mu.Unlock()

	req.fq, req.probation = req.filterQuery(now), nil
	if s.quarantine != nil && len(req.Msg.Questions) == 1 {
		e, state := s.quarantine.Check(req.fq.Qname, uint16(req.fq.Type), qodFlags(req.Msg), qodEpoch.Add(time.Duration(now)))
		switch state {
		case qod.Blocked:
			s.met.qodBlocked.Inc()
			return
		case qod.Probation:
			// TTL lapsed: this query is the re-admission probe, acquitted
			// if answered, re-struck if it crashes.
			req.probation = e
		}
	}

	score := 0.0
	if s.Pipeline != nil && len(req.Msg.Questions) == 1 {
		if z := s.Engine.Store.Find(req.Msg.Questions[0].Name); z != nil {
			req.fq.Zone = z.Origin()
		}
		score, _ = s.Pipeline.Score(&req.fq)
	}
	switch s.queues.Enqueue(score, req) {
	case queue.Discarded:
		s.mu.Lock()
		s.met.discarded.Inc()
		s.mu.Unlock()
		return
	case queue.TailDropped:
		s.mu.Lock()
		s.met.tailDropped.Inc()
		s.mu.Unlock()
		return
	}
	s.pump(now)
}

// pump arms the compute loop: one query processed every 1/ComputeQPS.
func (s *Server) pump(now simtime.Time) {
	s.mu.Lock()
	if s.pumpBusy || s.suspended {
		s.mu.Unlock()
		return
	}
	s.pumpBusy = true
	s.mu.Unlock()
	interval := time.Duration(float64(time.Second) / s.Cfg.ComputeQPS)
	s.sched.After(interval, func(t simtime.Time) { s.processOne(t) })
}

func (s *Server) processOne(now simtime.Time) {
	s.mu.Lock()
	s.pumpBusy = false
	suspended := s.suspended
	s.mu.Unlock()
	if suspended {
		return
	}
	it, ok := s.queues.Dequeue()
	if !ok {
		return
	}
	req := it.Payload.(*Request)
	resp, matchedZone, crashed := s.Engine.Answer(req.Msg, ResolverKey(req.Resolver))
	if crashed {
		s.crash(now, req)
	} else {
		if req.probation != nil {
			s.quarantine.Acquit(req.probation)
		}
		s.mu.Lock()
		s.met.answered.Inc()
		if req.Legit {
			s.met.answeredLegit.Inc()
		}
		nx := resp.RCode == dnswire.RCodeNXDomain
		if nx {
			s.met.nxdomain.Inc()
		}
		s.mu.Unlock()
		if s.Pipeline != nil {
			req.fq.Zone, req.fq.Now = matchedZone, now
			s.Pipeline.ObserveAnswer(&req.fq, nx)
		}
		if req.Respond != nil {
			req.Respond(now, resp)
		}
	}
	// Keep draining while work remains.
	if s.queues.Len() > 0 {
		s.pump(now)
	}
}

// crash models a QoD kill: pending queries are lost, the monitoring agent
// is notified, and (when enabled) the quarantine blocks the query's
// signature — re-striking the entry a probation probe matched, or adding
// the exact signature and minimizing it at once, nothing in the simulation
// being asynchronous.
func (s *Server) crash(now simtime.Time, req *Request) {
	sig := ""
	if len(req.Msg.Questions) == 1 {
		sig = req.Msg.Questions[0].Name.String()
		if s.quarantine != nil {
			exact := ExactSignature(req.fq.Qname, req.fq.Type, qodFlags(req.Msg))
			if _, fresh := s.quarantine.Add(exact, qodEpoch.Add(time.Duration(now))); fresh {
				if min, crashed := s.Engine.MinimizeQoD(req.Msg); crashed {
					s.quarantine.Replace(exact, min)
				}
			}
		}
	}
	s.mu.Lock()
	s.met.crashes.Inc()
	hook := s.OnCrash
	s.mu.Unlock()
	s.queues.Drain() // in-flight queries die with the process
	if hook != nil {
		hook(now, sig)
	}
}

// Snapshot returns a copy of the metrics (reads the live registry-backed
// counters).
func (s *Server) Snapshot() Metrics {
	return Metrics{
		Received:      s.met.received.Load(),
		IODropped:     s.met.ioDropped.Load(),
		Discarded:     s.met.discarded.Load(),
		TailDropped:   s.met.tailDropped.Load(),
		Answered:      s.met.answered.Load(),
		AnsweredLegit: s.met.answeredLegit.Load(),
		ReceivedLegit: s.met.receivedLegit.Load(),
		NXDomain:      s.met.nxdomain.Load(),
		Crashes:       s.met.crashes.Load(),
		QoDBlocked:    s.met.qodBlocked.Load(),
		Suspensions:   s.met.suspensions.Load(),
	}
}
