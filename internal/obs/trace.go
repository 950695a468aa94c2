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
// tracing unwired without branching. Every reading is an offset from the
// tracer's epoch: one monotonic clock read, not the wall+monotonic pair
// time.Now takes.
type Tracer struct {
	epoch  time.Time
	stages [numStages]*Histogram
	e2e    *Histogram
}

// NewTracer registers the lifecycle histograms on reg.
func NewTracer(reg *Registry) *Tracer {
	t := &Tracer{epoch: time.Now()}
	for st := Stage(0); st < numStages; st++ {
		t.stages[st] = reg.Histogram(MetricStageDuration,
			"Time spent in each query-lifecycle stage (head-sampled queries only).",
			nil, "stage", st.String())
	}
	t.e2e = reg.Histogram(MetricQueryDuration,
		"End-to-end query handling latency (receive to encoded response).", nil)
	return t
}

// Span is one query's passage through the stages. The zero Span (from a
// nil Tracer) is a no-op. Spans are values: no allocation per query.
type Span struct {
	t           *Tracer
	start, last time.Duration
	sampled     bool
}

// Begin opens a span at the receive instant. sampled is the query's
// head-sampling decision: only a sampled span stamps its stages, while
// every span's End is observed.
func (t *Tracer) Begin(sampled bool) Span {
	if t == nil {
		return Span{}
	}
	now := time.Since(t.epoch)
	return Span{t: t, start: now, last: now, sampled: sampled}
}

// Mark records the time since the previous mark (or Begin) into the given
// stage's histogram, for a sampled span.
func (s *Span) Mark(st Stage) {
	if !s.sampled {
		return
	}
	now := time.Since(s.t.epoch)
	s.t.stages[st].ObserveDuration(now - s.last)
	s.last = now
}

// End records the end-to-end latency and returns it (0 from a no-op span).
func (s *Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.t.epoch) - s.start
	s.t.e2e.ObserveDuration(d)
	return d
}
