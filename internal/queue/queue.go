// Package queue implements the query scoring and prioritization machinery of
// §4.3.3: scored queries are placed into one of a configurable number of
// queues by penalty score (discarding outright at S ≥ Smax); processing
// reads queues in increasing-penalty order and is work-conserving, so
// suspicious queries are answered whenever capacity remains. Starvation is
// possible in every queue except the lowest-penalty one.
package queue

import (
	"fmt"
	"strconv"
	"sync"

	"akamaidns/internal/obs"
)

// Config describes the queue ladder.
type Config struct {
	// MaxScores holds each queue's maximum penalty score M_i in increasing
	// order; a query with score S lands in the first queue with S <= M_i.
	MaxScores []float64
	// Smax discards queries outright ("definitively malicious").
	Smax float64
	// Capacity bounds each queue's depth; arrivals beyond it are dropped
	// (tail drop).
	Capacity int
}

// DefaultConfig is the three-ladder configuration the experiments use:
// clean (0), suspicious (< 100), and hostile-but-processable (< Smax).
func DefaultConfig() Config {
	return Config{MaxScores: []float64{0, 99, 199}, Smax: 200, Capacity: 4096}
}

// Item is one enqueued query with its score and opaque payload.
type Item struct {
	Score   float64
	Payload any
}

// Stats summarizes queue activity.
type Stats struct {
	Enqueued    uint64
	Dequeued    uint64
	Discarded   uint64 // S >= Smax
	TailDropped uint64 // queue full
	PerQueue    []uint64
}

// Q is the multi-level penalty queue. Safe for concurrent use.
type Q struct {
	mu     sync.Mutex
	cfg    Config
	queues [][]Item
	stats  Stats
}

// New validates the config and builds the queue ladder.
func New(cfg Config) (*Q, error) {
	if len(cfg.MaxScores) == 0 {
		return nil, fmt.Errorf("queue: no queues configured")
	}
	for i := 1; i < len(cfg.MaxScores); i++ {
		if cfg.MaxScores[i] <= cfg.MaxScores[i-1] {
			return nil, fmt.Errorf("queue: MaxScores must be strictly increasing")
		}
	}
	if cfg.Smax <= cfg.MaxScores[len(cfg.MaxScores)-1] {
		return nil, fmt.Errorf("queue: Smax must exceed the last queue threshold")
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("queue: non-positive capacity")
	}
	return &Q{cfg: cfg, queues: make([][]Item, len(cfg.MaxScores)),
		stats: Stats{PerQueue: make([]uint64, len(cfg.MaxScores))}}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Q {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Enqueue places an item by score. It reports what happened: Accepted,
// Discarded (S ≥ Smax), or TailDropped (target queue full).
func (q *Q) Enqueue(score float64, payload any) Outcome {
	q.mu.Lock()
	defer q.mu.Unlock()
	if score >= q.cfg.Smax {
		q.stats.Discarded++
		return Discarded
	}
	idx := len(q.queues) - 1
	for i, m := range q.cfg.MaxScores {
		if score <= m {
			idx = i
			break
		}
	}
	if len(q.queues[idx]) >= q.cfg.Capacity {
		q.stats.TailDropped++
		return TailDropped
	}
	q.queues[idx] = append(q.queues[idx], Item{Score: score, Payload: payload})
	q.stats.Enqueued++
	q.stats.PerQueue[idx]++
	return Accepted
}

// Rung reports which ladder rung a score lands in (0 = lowest penalty,
// i.e. clean) without touching the queues or counters, or -1 at S >= Smax.
// The overload degradation ladder uses it to shed scored tiers above the
// clean rung when the machine is near its in-flight ceiling.
func (q *Q) Rung(score float64) int {
	if score >= q.cfg.Smax {
		return -1
	}
	idx := len(q.cfg.MaxScores) - 1
	for i, m := range q.cfg.MaxScores {
		if score <= m {
			idx = i
			break
		}
	}
	return idx
}

// Rung on the FIFO comparator: every admissible score is rung 0.
func (f *FIFO) Rung(score float64) int { return 0 }

// Admit classifies a score without queueing a payload: the same ladder
// placement and counters as an Enqueue immediately followed by a Dequeue,
// minus the slice traffic. The socket server uses it when queries are
// processed synchronously on the read loop, where materializing the item
// only to pop it again would serialize workers on the queue slices.
func (q *Q) Admit(score float64) Outcome {
	q.mu.Lock()
	defer q.mu.Unlock()
	if score >= q.cfg.Smax {
		q.stats.Discarded++
		return Discarded
	}
	idx := len(q.queues) - 1
	for i, m := range q.cfg.MaxScores {
		if score <= m {
			idx = i
			break
		}
	}
	if len(q.queues[idx]) >= q.cfg.Capacity {
		q.stats.TailDropped++
		return TailDropped
	}
	q.stats.Enqueued++
	q.stats.PerQueue[idx]++
	q.stats.Dequeued++
	return Accepted
}

// Admit on the FIFO comparator: accept unless full, mirroring Enqueue+Dequeue.
func (f *FIFO) Admit(score float64) Outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) >= f.capacity {
		f.stats.TailDropped++
		return TailDropped
	}
	f.stats.Enqueued++
	f.stats.PerQueue[0]++
	f.stats.Dequeued++
	return Accepted
}

// Outcome is the result of an Enqueue.
type Outcome int

// Enqueue outcomes.
const (
	Accepted Outcome = iota
	Discarded
	TailDropped
)

func (o Outcome) String() string {
	switch o {
	case Accepted:
		return "accepted"
	case Discarded:
		return "discarded"
	case TailDropped:
		return "taildropped"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Dequeue removes the next item in strict priority order (lowest-penalty
// queue first). Work-conserving: if the preferred queue is empty it reads
// the next one. Reports false when all queues are empty.
func (q *Q) Dequeue() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.queues {
		if len(q.queues[i]) > 0 {
			it := q.queues[i][0]
			q.queues[i] = q.queues[i][1:]
			q.stats.Dequeued++
			return it, true
		}
	}
	return Item{}, false
}

// Len reports the total number of queued items.
func (q *Q) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, qq := range q.queues {
		n += len(qq)
	}
	return n
}

// QueueLen reports one queue's depth.
func (q *Q) QueueLen(i int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queues[i])
}

// Instrument registers this ladder's per-queue depth gauges and activity
// counters on reg. Collection reads happen at scrape time only, so the
// enqueue/dequeue hot path is untouched.
func (q *Q) Instrument(reg *obs.Registry) {
	for i := range q.queues {
		i := i
		reg.GaugeFunc(obs.MetricQueueDepth,
			"Current depth of each penalty queue (0 = lowest penalty).",
			func() float64 { return float64(q.QueueLen(i)) },
			"queue", strconv.Itoa(i))
	}
	reg.CounterFunc(obs.MetricQueueEnqueuedTotal,
		"Queries admitted into the penalty ladder.",
		func() float64 { return float64(q.Stats().Enqueued) })
	reg.CounterFunc(obs.MetricQueueDiscardedTotal,
		"Queries discarded outright at S >= Smax.",
		func() float64 { return float64(q.Stats().Discarded) })
	reg.CounterFunc(obs.MetricQueueTailDroppedTotal,
		"Queries dropped because their target queue was full.",
		func() float64 { return float64(q.Stats().TailDropped) })
}

// Stats returns a snapshot of counters.
func (q *Q) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.PerQueue = append([]uint64(nil), q.stats.PerQueue...)
	return s
}

// Drain empties all queues, returning the dropped items' count (used when a
// nameserver self-suspends).
func (q *Q) Drain() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for i := range q.queues {
		n += len(q.queues[i])
		q.queues[i] = nil
	}
	return n
}

// FIFO is the ablation comparator: a single queue with no prioritization,
// same total capacity. Under attack, legitimate and attack queries are
// equally likely to be dropped (the "w/o filter" line of Figure 10).
type FIFO struct {
	mu       sync.Mutex
	items    []Item
	capacity int
	stats    Stats
}

// NewFIFO builds the single-queue comparator with the given capacity.
func NewFIFO(capacity int) *FIFO {
	return &FIFO{capacity: capacity, stats: Stats{PerQueue: make([]uint64, 1)}}
}

// Enqueue appends unless full. Score is recorded but ignored for ordering.
func (f *FIFO) Enqueue(score float64, payload any) Outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) >= f.capacity {
		f.stats.TailDropped++
		return TailDropped
	}
	f.items = append(f.items, Item{Score: score, Payload: payload})
	f.stats.Enqueued++
	f.stats.PerQueue[0]++
	return Accepted
}

// Dequeue removes the oldest item.
func (f *FIFO) Dequeue() (Item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) == 0 {
		return Item{}, false
	}
	it := f.items[0]
	f.items = f.items[1:]
	f.stats.Dequeued++
	return it, true
}

// Len reports the queue depth.
func (f *FIFO) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.items)
}

// Stats returns a snapshot.
func (f *FIFO) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.PerQueue = append([]uint64(nil), f.stats.PerQueue...)
	return s
}

// Drain empties the queue.
func (f *FIFO) Drain() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	f.items = nil
	return n
}

// Interface is satisfied by both Q and FIFO so the nameserver can swap them
// for the ablation.
type Interface interface {
	Enqueue(score float64, payload any) Outcome
	Admit(score float64) Outcome
	Rung(score float64) int
	Dequeue() (Item, bool)
	Len() int
	Stats() Stats
	Drain() int
}

var (
	_ Interface = (*Q)(nil)
	_ Interface = (*FIFO)(nil)
)
