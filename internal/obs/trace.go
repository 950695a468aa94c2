package obs

import "time"

// Stage enumerates the serving stages a query passes through, in order:
// socket receive/decode, cookie verification, scoring pipeline, queue
// admission, engine lookup, and response encode/write.
type Stage uint8

// Lifecycle stages.
const (
	StageReceive Stage = iota
	StageCookie
	StageScore
	StageQueue
	StageLookup
	StageWrite
	numStages
)

func (s Stage) String() string {
	switch s {
	case StageReceive:
		return "receive"
	case StageCookie:
		return "cookie"
	case StageScore:
		return "score"
	case StageQueue:
		return "queue"
	case StageLookup:
		return "lookup"
	case StageWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Tracer stamps query lifecycles into per-stage and end-to-end latency
// histograms. A nil *Tracer is a valid no-op tracer, so callers can leave
// tracing unwired without branching.
type Tracer struct {
	now    func() time.Time
	stages [numStages]*Histogram
	e2e    *Histogram
}

// NewTracer registers the lifecycle histograms on reg. clock may be nil
// (wall clock); tests and the simulation can inject their own.
func NewTracer(reg *Registry, clock func() time.Time) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	t := &Tracer{now: clock}
	for st := Stage(0); st < numStages; st++ {
		t.stages[st] = reg.Histogram(MetricStageDuration,
			"Time spent in each query-lifecycle stage.", nil, "stage", st.String())
	}
	t.e2e = reg.Histogram(MetricQueryDuration,
		"End-to-end query handling latency (receive to encoded response).", nil)
	return t
}

// Span is one query's passage through the stages. The zero Span (from a
// nil Tracer) is a no-op. Spans are values: no allocation per query.
type Span struct {
	t     *Tracer
	start time.Time
	last  time.Time
}

// Begin opens a span at the receive instant.
func (t *Tracer) Begin() Span {
	if t == nil {
		return Span{}
	}
	now := t.now()
	return Span{t: t, start: now, last: now}
}

// Mark records the time since the previous mark (or Begin) into the given
// stage's histogram.
func (s *Span) Mark(st Stage) {
	if s.t == nil {
		return
	}
	now := s.t.now()
	s.t.stages[st].ObserveDuration(now.Sub(s.last))
	s.last = now
}

// End records the end-to-end latency and returns it (0 from a no-op span).
func (s *Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := s.t.now().Sub(s.start)
	s.t.e2e.ObserveDuration(d)
	return d
}
