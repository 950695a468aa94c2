package ctlplane

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/obs"
)

// Pipeline overlaps the two halves of changelist processing: a validate
// stage (Plan: read-only diff + validation gate against a generation-pinned
// view of the store) and a commit stage (applyPlan: the store write batch,
// history, and propagation). With both stages on their own goroutine joined
// by a bounded queue, changelist N+1 validates while N commits — the
// control plane's version of instruction pipelining. Commits run with the
// revalidation-on-conflict fast path enabled, so the overlap does not turn
// plan-time version pins into spurious conflicts (see applyPlan).
//
// Ordering: changelists commit in submission order, one at a time, over the
// controller's store. The pipeline buys throughput (validation cost off the
// commit path), not commit concurrency.
type Pipeline struct {
	c *Controller

	in     chan *pipeItem
	commit chan *pipeItem
	wg     sync.WaitGroup

	submitMu sync.RWMutex
	closed   bool

	depth     atomic.Int64
	closeOnce sync.Once

	validateSeconds *obs.Histogram
	commitSeconds   *obs.Histogram
	revalidations   *obs.Counter
	dirtyShards     *obs.Histogram
}

// PipelineConfig is NewPipeline's argument. It holds no options.
type PipelineConfig struct{}

// pipelineDepth bounds queued changelists per stage. A full queue blocks
// Submit — backpressure, not unbounded buffering.
const pipelineDepth = 4

// pipeItem is one changelist in flight through the stages.
type pipeItem struct {
	cl Changelist
	p  *Plan
	t  *Ticket
}

// Ticket tracks one submitted changelist to completion.
type Ticket struct {
	done chan struct{}
	plan *Plan
	err  error
}

// Wait blocks until the changelist has fully committed (or was rejected at
// the validation gate) and returns its plan.
func (t *Ticket) Wait() (*Plan, error) {
	<-t.done
	return t.plan, t.err
}

// dirtyShardBuckets spans 1 shard to all 256 of the router's one wire-keyed
// index: the most a publish can clone.
var dirtyShardBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewPipeline starts the validate and commit stages over c and attaches
// itself to the controller (HTTP mode=pipeline routes through it). Close
// must be called to drain and stop the stage goroutines.
func NewPipeline(c *Controller, _ PipelineConfig) *Pipeline {
	pl := &Pipeline{
		c:      c,
		in:     make(chan *pipeItem, pipelineDepth),
		commit: make(chan *pipeItem, pipelineDepth),
	}
	helpStage := "Pipelined changelist stage latency, by stage."
	pl.validateSeconds = c.reg.Histogram("akamaidns_ctl_pipeline_stage_seconds", helpStage, nil, "stage", "validate")
	pl.commitSeconds = c.reg.Histogram("akamaidns_ctl_pipeline_stage_seconds", helpStage, nil, "stage", "commit")
	pl.revalidations = c.reg.Counter("akamaidns_ctl_revalidations_total",
		"Zone plans re-pinned at commit because an earlier pipelined changelist moved their serving serial.")
	pl.dirtyShards = c.reg.Histogram("akamaidns_ctl_router_dirty_shards",
		"Router shard maps republished per pipelined apply.", dirtyShardBuckets)
	c.reg.GaugeFunc("akamaidns_ctl_pipeline_depth",
		"Changelists in flight in the pipelined control plane.",
		func() float64 { return float64(pl.depth.Load()) })
	pl.wg.Add(2)
	go pl.validator()
	go pl.committer()
	c.pipeline.Store(pl)
	return pl
}

// ErrPipelineClosed is returned by Submit after Close.
var ErrPipelineClosed = errors.New("ctlplane: pipeline closed")

// Submit enqueues a changelist for pipelined validate+commit. It blocks
// only when the validate queue is full (backpressure).
func (pl *Pipeline) Submit(cl Changelist) (*Ticket, error) {
	t := &Ticket{done: make(chan struct{})}
	pl.submitMu.RLock()
	defer pl.submitMu.RUnlock()
	if pl.closed {
		return nil, ErrPipelineClosed
	}
	pl.depth.Add(1)
	pl.in <- &pipeItem{cl: cl, t: t}
	return t, nil
}

// SubmitWait is Submit + Wait: the drop-in replacement for SubmitApply that
// still overlaps with other in-flight changelists.
func (pl *Pipeline) SubmitWait(cl Changelist) (*Plan, error) {
	t, err := pl.Submit(cl)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// Depth reports the changelists currently in flight (submitted, not yet
// finished).
func (pl *Pipeline) Depth() int { return int(pl.depth.Load()) }

// StageQuantile reads a latency quantile for "validate" or "commit".
func (pl *Pipeline) StageQuantile(stage string, q float64) time.Duration {
	h := pl.validateSeconds
	if stage == "commit" {
		h = pl.commitSeconds
	}
	v := h.Quantile(q)
	if v != v { // NaN: no observations yet
		return 0
	}
	return time.Duration(v * float64(time.Second))
}

// Revalidations reports how many zone plans the commit stage re-pinned.
func (pl *Pipeline) Revalidations() uint64 { return pl.revalidations.Load() }

// Close drains both stages and stops the pipeline. In-flight tickets
// complete; subsequent Submits fail with ErrPipelineClosed.
func (pl *Pipeline) Close() {
	pl.closeOnce.Do(func() {
		pl.submitMu.Lock()
		pl.closed = true
		pl.submitMu.Unlock()
		close(pl.in)
	})
	pl.wg.Wait()
}

func (pl *Pipeline) validator() {
	defer pl.wg.Done()
	defer close(pl.commit)
	for it := range pl.in {
		start := time.Now()
		p := pl.c.Plan(it.cl)
		pl.validateSeconds.Observe(time.Since(start).Seconds())
		if p.Status != StatusPlanned {
			// Rejected changelists finish at the gate; only appliable
			// plans cross into the commit stage.
			it.t.plan = p
			pl.finish(it.t)
			continue
		}
		it.p = p
		pl.commit <- it
	}
}

func (pl *Pipeline) committer() {
	defer pl.wg.Done()
	for it := range pl.commit {
		start := time.Now()
		shards0 := pl.c.store.ShardRebuilds()
		reval, err := pl.c.applyPlan(it.p, true)
		pl.commitSeconds.Observe(time.Since(start).Seconds())
		if d := pl.c.store.ShardRebuilds() - shards0; d > 0 {
			pl.dirtyShards.Observe(float64(d))
		}
		if reval > 0 {
			pl.revalidations.Add(uint64(reval))
		}
		it.t.plan, it.t.err = it.p, err
		pl.finish(it.t)
	}
}

func (pl *Pipeline) finish(t *Ticket) {
	pl.depth.Add(-1)
	close(t.done)
}
