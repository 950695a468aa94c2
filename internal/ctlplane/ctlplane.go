// Package ctlplane is the zone control plane: the reconciliation subsystem
// that carries a zone change from "desired state submitted" to "served by
// every machine". The paper's platform never serves a static snapshot —
// zones are continuously provisioned, modified, and removed while queries
// are answered at full rate (§3.2, §5) — and at that scale bad *changes*,
// not packets, become the dominant failure mode. So the pipeline is
// changelist-shaped, modeled on desired-state diff/plan/apply systems:
//
//	submit desired zone state          (Changelist)
//	→ diff against serving state       (Plan: creates/updates/deletes at
//	                                    RRset granularity, zone.Diff core)
//	→ validate before anything serves  (syntax, serial monotonicity,
//	                                    CNAME discipline, delegation/glue
//	                                    consistency — the pre-gate)
//	→ apply atomically per zone        (whole-zone swap in one store batch,
//	                                    one router rebuild per batch)
//	→ propagate increments             (publish hook onto the pubsub fabric,
//	                                    IXFR history for secondaries)
//
// Applies are optimistic: each zone plan pins the serving zone version it
// was computed against, and a zone whose version moved between plan and
// apply is marked as a conflict and skipped rather than clobbered.
package ctlplane

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/obs"
	"akamaidns/internal/zone"
)

// ChangeOp classifies a change at zone or RRset granularity.
type ChangeOp string

// Change operations.
const (
	OpCreate ChangeOp = "create"
	OpUpdate ChangeOp = "update"
	OpDelete ChangeOp = "delete"
)

// ZoneChange is one entry of a changelist: the full desired state of one
// zone, or its deletion.
type ZoneChange struct {
	Origin dnswire.Name
	// Delete removes the zone entirely; Desired is ignored.
	Delete bool
	// Desired is the complete desired zone content. Its SOA may be omitted:
	// for an update the serving SOA is carried forward with serial+1 (the
	// common "change records, let the platform version it" workflow); a
	// create without an SOA is rejected.
	Desired *zone.Zone
}

// Changelist is one submitted batch of desired zone states.
type Changelist struct {
	Zones []ZoneChange
}

// RRsetChange is one planned change at (owner name, type) granularity.
type RRsetChange struct {
	Name    dnswire.Name
	Type    dnswire.Type
	Op      ChangeOp
	Added   int // records added to the RRset
	Deleted int // records removed from the RRset
}

// ZonePlan is the planned change for one zone.
type ZonePlan struct {
	Origin dnswire.Name
	Op     ChangeOp
	// FromSerial is the serving serial the plan was computed against (0 for
	// creates); ToSerial is the serial that will serve after apply.
	FromSerial uint32
	ToSerial   uint32
	Changes    []RRsetChange
	// Conflict is set at apply time when the serving version is no longer
	// the one planned against (someone else changed the zone since
	// planning, even at the same serial); the zone is skipped, not
	// clobbered.
	Conflict bool
	// Revalidated is set when the pipelined apply path re-pinned this zone
	// against a serving version that moved after planning (see applyPlan).
	Revalidated bool
	// fromVersion is the Version of the serving zone the plan was computed
	// against (0 for creates).
	fromVersion uint64
	// desired is the fully validated new zone content (nil for deletes).
	desired *zone.Zone
	// inheritSOA records that the SOA was carried forward from serving
	// state (records-only submission): the zone is eligible for the
	// revalidation-on-conflict fast path, because its serial is
	// platform-assigned rather than caller-pinned.
	inheritSOA bool
}

// Rejection is one validation failure. Any rejection gates the whole
// changelist: nothing is applied.
type Rejection struct {
	Origin dnswire.Name
	Reason string
	Detail string
}

func (r Rejection) String() string {
	return fmt.Sprintf("%s: %s (%s)", r.Origin, r.Reason, r.Detail)
}

// PlanStatus is a plan's lifecycle state.
type PlanStatus string

// Plan states.
const (
	StatusPlanned  PlanStatus = "planned"  // validated, not yet applied
	StatusRejected PlanStatus = "rejected" // failed the validation gate
	StatusApplied  PlanStatus = "applied"  // every zone plan applied
	StatusPartial  PlanStatus = "partial"  // applied with conflicts skipped
)

// Plan is a validated changelist diffed against serving state, retained for
// status polling until evicted.
type Plan struct {
	ID      uint64
	Created time.Time
	Status  PlanStatus
	Zones   []*ZonePlan
	// Rejections is non-empty exactly when Status == StatusRejected.
	Rejections []Rejection
	// NoOps counts changelist entries already matching serving state.
	NoOps int
	// RRsets counts planned RRset-granularity changes across all zones.
	RRsets int
	// Conflicts counts zones skipped at apply time.
	Conflicts int
	// Revalidated counts zones re-pinned by the pipelined apply path.
	Revalidated int
	AppliedAt   time.Time
}

// Config parameterizes a Controller.
type Config struct {
	// Registry receives the control-plane metrics (nil = private registry).
	Registry *obs.Registry
	// History, when set, records each applied zone version so secondaries
	// can fetch IXFR deltas instead of full transfers.
	History *zone.History
	// Publish, when set, is invoked once per applied zone change after the
	// store batch commits — the hook the simulated platform wires to its
	// pubsub fabric so every machine's zone input refreshes.
	Publish func(origin dnswire.Name, serial uint32)
}

const (
	// maxZones bounds the zones of one changelist.
	maxZones = 4096
	// maxPlans bounds the plans retained for status polling.
	maxPlans = 128
)

// Controller owns the plan/apply pipeline over one zone store.
type Controller struct {
	store *zone.Store
	cfg   Config
	reg   *obs.Registry
	// pipeline, when a Pipeline has been built over this controller, routes
	// HTTP mode=pipeline submissions through the staged path.
	pipeline atomic.Pointer[Pipeline]

	mu     sync.Mutex
	nextID uint64
	plans  map[uint64]*Plan
	order  []uint64 // retention ring, oldest first
	lastID uint64

	// Metrics.
	plansPlanned   *obs.Counter
	plansApplied   *obs.Counter
	plansRejected  *obs.Counter
	plansPartial   *obs.Counter
	zoneChanges    map[ChangeOp]*obs.Counter
	rrsetChanges   map[ChangeOp]*obs.Counter
	conflictsTotal *obs.Counter
	noopsTotal     *obs.Counter
	planSize       *obs.Histogram // RRset changes per plan
	applyBatch     *obs.Histogram // zones per apply batch
	applySeconds   *obs.Histogram // plan-to-applied latency
}

// changeSizeBuckets span 1 RRset change to ~100k — plan and batch sizes.
var changeSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// New builds a controller over the store.
func New(store *zone.Store, cfg Config) *Controller {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Controller{
		store: store,
		cfg:   cfg,
		reg:   reg,
		plans: make(map[uint64]*Plan),
	}
	helpPlans := "Changelist plans by outcome."
	c.plansPlanned = reg.Counter("akamaidns_ctl_plans_total", helpPlans, "result", "planned")
	c.plansApplied = reg.Counter("akamaidns_ctl_plans_total", helpPlans, "result", "applied")
	c.plansRejected = reg.Counter("akamaidns_ctl_plans_total", helpPlans, "result", "rejected")
	c.plansPartial = reg.Counter("akamaidns_ctl_plans_total", helpPlans, "result", "partial")
	helpZones := "Zone-granularity changes applied, by operation."
	helpRRsets := "RRset-granularity changes applied, by operation."
	c.zoneChanges = make(map[ChangeOp]*obs.Counter)
	c.rrsetChanges = make(map[ChangeOp]*obs.Counter)
	for _, op := range []ChangeOp{OpCreate, OpUpdate, OpDelete} {
		c.zoneChanges[op] = reg.Counter("akamaidns_ctl_zone_changes_total", helpZones, "op", string(op))
		c.rrsetChanges[op] = reg.Counter("akamaidns_ctl_rrset_changes_total", helpRRsets, "op", string(op))
	}
	c.conflictsTotal = reg.Counter("akamaidns_ctl_conflicts_total",
		"Zone plans skipped at apply because the serving version moved after planning.")
	c.noopsTotal = reg.Counter("akamaidns_ctl_noops_total",
		"Changelist entries that already matched serving state.")
	c.planSize = reg.Histogram("akamaidns_ctl_plan_rrset_changes",
		"RRset changes per non-empty plan.", changeSizeBuckets)
	c.applyBatch = reg.Histogram("akamaidns_ctl_apply_batch_zones",
		"Zones applied per store batch (each batch costs one router rebuild).", changeSizeBuckets)
	c.applySeconds = reg.Histogram("akamaidns_ctl_apply_seconds",
		"Wall time from plan acceptance to batch applied.", nil)
	reg.GaugeFunc("akamaidns_ctl_plans_retained",
		"Plans currently retained for status polling.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.plans))
		})
	return c
}

// rejectCounter lazily materializes the per-reason rejection series.
func (c *Controller) rejectCounter(reason string) *obs.Counter {
	return c.reg.Counter("akamaidns_ctl_rejects_total",
		"Changelist validation rejections by reason.", "reason", reason)
}

// Plan diffs the changelist against serving state, validates it, registers
// the resulting plan for status polling, and returns it. A plan with
// rejections has Status == StatusRejected and cannot be applied; nothing
// was installed.
func (c *Controller) Plan(cl Changelist) *Plan {
	p := &Plan{Created: time.Now(), Status: StatusPlanned}
	if len(cl.Zones) > maxZones {
		p.Rejections = append(p.Rejections, Rejection{
			Reason: "changelist-too-large",
			Detail: fmt.Sprintf("%d zones, limit %d", len(cl.Zones), maxZones),
		})
	}
	seen := make(map[dnswire.Name]bool, len(cl.Zones))
	for i := range cl.Zones {
		zc := &cl.Zones[i]
		if zc.Origin.IsZero() {
			p.Rejections = append(p.Rejections, Rejection{Reason: "no-origin",
				Detail: fmt.Sprintf("changelist entry %d has no origin", i)})
			continue
		}
		if seen[zc.Origin] {
			p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
				Reason: "duplicate-origin", Detail: "origin appears twice in one changelist"})
			continue
		}
		seen[zc.Origin] = true
		c.planZone(p, zc)
	}
	if len(p.Rejections) > 0 {
		p.Status = StatusRejected
		p.Zones = nil // a rejected plan must never be partially appliable
		for _, r := range p.Rejections {
			c.rejectCounter(r.Reason).Inc()
		}
		c.plansRejected.Inc()
	} else {
		c.plansPlanned.Inc()
		if p.RRsets > 0 {
			c.planSize.Observe(float64(p.RRsets))
		}
	}
	c.noopsTotal.Add(uint64(p.NoOps))
	c.register(p)
	return p
}

// planZone computes one zone's plan entry, appending to p.
func (c *Controller) planZone(p *Plan, zc *ZoneChange) {
	cur := c.store.Get(zc.Origin)
	if zc.Delete {
		if cur == nil {
			p.NoOps++ // deleting an absent zone is already reconciled
			return
		}
		delta := zone.Diff(cur, zone.New(zc.Origin))
		zp := &ZonePlan{
			Origin:      zc.Origin,
			Op:          OpDelete,
			FromSerial:  cur.Serial(),
			Changes:     rrsetChanges(delta),
			fromVersion: cur.Version(),
		}
		p.Zones = append(p.Zones, zp)
		p.RRsets += len(zp.Changes)
		return
	}
	desired := zc.Desired
	if desired == nil {
		p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
			Reason: "no-desired-state", Detail: "neither desired zone content nor delete"})
		return
	}
	if desired.Origin() != zc.Origin {
		p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
			Reason: "origin-mismatch",
			Detail: fmt.Sprintf("desired zone rooted at %s", desired.Origin())})
		return
	}

	if cur == nil { // create
		if desired.SOA() == nil {
			p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
				Reason: "no-soa", Detail: "a new zone needs an explicit SOA"})
			return
		}
		if rej := validateZone(desired); len(rej) > 0 {
			p.Rejections = append(p.Rejections, rej...)
			return
		}
		delta := zone.Diff(zone.New(zc.Origin), desired)
		zp := &ZonePlan{
			Origin:   zc.Origin,
			Op:       OpCreate,
			ToSerial: desired.Serial(),
			Changes:  rrsetChanges(delta),
			desired:  desired,
		}
		p.Zones = append(p.Zones, zp)
		p.RRsets += len(zp.Changes)
		return
	}

	// Update: diff first (the SOA is framing, not content), then decide
	// versioning.
	delta := zone.Diff(cur, desired)
	curSerial := cur.Serial()
	inheritSOA := false
	switch soa := desired.SOA(); {
	case soa == nil:
		if delta.Empty() {
			p.NoOps++ // nothing to change, nothing to version
			return
		}
		// Carry the serving SOA forward, bumped — the submit-records-only
		// workflow.
		inherited := cur.SOA()
		if inherited == nil {
			p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
				Reason: "no-soa", Detail: "serving zone has no SOA to carry forward"})
			return
		}
		inherited.Serial = curSerial + 1
		versioned, err := zone.Build(zc.Origin, append(desired.AllRecords(), inherited))
		if err != nil {
			p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
				Reason: "no-soa", Detail: err.Error()})
			return
		}
		desired, inheritSOA = versioned, true
	case soa.Serial == curSerial && delta.Empty():
		p.NoOps++ // byte-for-byte the serving state
		return
	case soa.Serial <= curSerial:
		// The monotonicity gate: a serial that does not advance past the
		// serving one would strand secondaries and reorder propagation.
		p.Rejections = append(p.Rejections, Rejection{Origin: zc.Origin,
			Reason: "serial-not-monotonic",
			Detail: fmt.Sprintf("desired serial %d, serving %d", soa.Serial, curSerial)})
		return
	}
	if rej := validateZone(desired); len(rej) > 0 {
		p.Rejections = append(p.Rejections, rej...)
		return
	}
	zp := &ZonePlan{
		Origin:      zc.Origin,
		Op:          OpUpdate,
		FromSerial:  curSerial,
		ToSerial:    desired.Serial(),
		Changes:     rrsetChanges(delta),
		fromVersion: cur.Version(),
		desired:     desired,
		inheritSOA:  inheritSOA,
	}
	p.Zones = append(p.Zones, zp)
	p.RRsets += len(zp.Changes)
}

// rrsetChanges groups a record-granularity delta into RRset-granularity
// changes, in canonical (name, type) order.
func rrsetChanges(d zone.Delta) []RRsetChange {
	type key struct {
		name dnswire.Name
		typ  dnswire.Type
	}
	acc := make(map[key]*RRsetChange)
	var order []key
	touch := func(rr dnswire.RR) *RRsetChange {
		h := rr.Header()
		k := key{h.Name, h.Type}
		ch := acc[k]
		if ch == nil {
			ch = &RRsetChange{Name: h.Name, Type: h.Type}
			acc[k] = ch
			order = append(order, k)
		}
		return ch
	}
	for _, rr := range d.Deleted {
		touch(rr).Deleted++
	}
	for _, rr := range d.Added {
		touch(rr).Added++
	}
	out := make([]RRsetChange, 0, len(order))
	for _, k := range order {
		ch := acc[k]
		switch {
		case ch.Deleted == 0:
			ch.Op = OpCreate
		case ch.Added == 0:
			ch.Op = OpDelete
		default:
			ch.Op = OpUpdate
		}
		out = append(out, *ch)
	}
	// d.Deleted/d.Added are each sorted, but interleaving creates vs
	// updates needs a final canonical order for deterministic rendering.
	sortRRsetChanges(out)
	return out
}

func sortRRsetChanges(out []RRsetChange) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j-1], &out[j]
			if c := a.Name.Compare(b.Name); c < 0 || (c == 0 && a.Type <= b.Type) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
}

// Apply installs a planned changelist: one store batch (one dirty-shard
// router republish, one generation bump) swapping each zone wholesale, then
// IXFR history and pubsub propagation for every applied zone. Zones whose
// serving version moved since planning are marked Conflict and skipped. A
// plan applies at most once.
func (c *Controller) Apply(p *Plan) error {
	_, err := c.applyPlan(p, false)
	return err
}

// revalUpdate carries a re-pinned zone plan's recomputed fields out of the
// store batch; they are written back to the ZonePlan under c.mu so the
// writes never race renderPlan.
type revalUpdate struct {
	zp         *ZonePlan
	fromSerial uint32
	toSerial   uint32
	changes    []RRsetChange
}

// applyPlan is Apply with an optional revalidation-on-conflict fast path,
// used by the pipelined commit stage: when a later changelist's plan was
// computed while an earlier one was still committing, zones whose serving
// version moved are re-pinned inside the same store batch instead of being
// skipped as conflicts. Only updates are eligible — a records-only
// submission (inheritSOA) re-inherits the new serving serial +1, and an
// explicitly versioned update goes through as long as its serial still
// advances past the one now serving. Content validation is not repeated:
// validateZone checks serial-independent zone content that cannot have
// changed since the plan-time gate. Creates-that-now-exist and moved
// deletes keep strict optimistic-concurrency semantics and conflict.
func (c *Controller) applyPlan(p *Plan, revalidate bool) (int, error) {
	c.mu.Lock()
	if p.Status != StatusPlanned {
		c.mu.Unlock()
		return 0, fmt.Errorf("ctlplane: plan %d is %s, not appliable", p.ID, p.Status)
	}
	// Claim the plan before releasing the lock so concurrent Apply calls
	// cannot double-install it.
	p.Status = StatusApplied
	c.mu.Unlock()

	start := time.Now()
	var (
		applied, conflicted []*ZonePlan
		revals              []revalUpdate
		revalNoops          []*revalUpdate
	)
	c.store.Update(func(tx *zone.Tx) {
		for _, zp := range p.Zones {
			cur := tx.Get(zp.Origin)
			switch zp.Op {
			case OpDelete:
				if cur.Version() != zp.fromVersion {
					conflicted = append(conflicted, zp)
					continue
				}
				tx.Delete(zp.Origin)
			case OpCreate:
				if cur != nil {
					conflicted = append(conflicted, zp)
					continue
				}
				tx.Put(zp.desired)
			case OpUpdate:
				if cur == nil {
					conflicted = append(conflicted, zp)
					continue
				}
				if cur.Version() != zp.fromVersion {
					if !revalidate {
						conflicted = append(conflicted, zp)
						continue
					}
					curSerial := cur.Serial()
					switch {
					case zp.inheritSOA:
						// Re-inherit: the platform owns this zone's serial,
						// so version the same content against the serial
						// now serving. An empty delta from desired's own
						// serial cannot fail: desired holds the SOA it
						// inherited.
						zp.desired, _ = zone.Apply(zp.desired, zone.Delta{FromSerial: zp.desired.Serial(), ToSerial: curSerial + 1})
						delta := zone.Diff(cur, zp.desired)
						if delta.Empty() {
							// The earlier commit already installed this
							// content; reconciliation is a no-op.
							revalNoops = append(revalNoops, &revalUpdate{zp, curSerial, curSerial, nil})
							continue
						}
						revals = append(revals, revalUpdate{zp, curSerial, curSerial + 1, rrsetChanges(delta)})
					case zp.ToSerial > curSerial:
						delta := zone.Diff(cur, zp.desired)
						revals = append(revals, revalUpdate{zp, curSerial, zp.ToSerial, rrsetChanges(delta)})
					default:
						// An explicitly pinned serial that no longer
						// advances: applying would strand secondaries.
						conflicted = append(conflicted, zp)
						continue
					}
				}
				tx.Put(zp.desired)
			}
			applied = append(applied, zp)
		}
		// Record each installed version in the critical section that
		// installs it: two applies of one origin then record in the order
		// they install, so the history's newest is the serving version.
		if c.cfg.History != nil {
			for _, zp := range applied {
				if zp.Op != OpDelete {
					c.cfg.History.Record(zp.desired)
				}
			}
		}
	})

	// Write re-pinned plan fields back under c.mu before Publish reads
	// them: renderPlan snapshots concurrently under the same lock.
	if len(revals) > 0 || len(revalNoops) > 0 {
		c.mu.Lock()
		for _, r := range revals {
			r.zp.FromSerial = r.fromSerial
			r.zp.ToSerial = r.toSerial
			r.zp.Changes = r.changes
			r.zp.Revalidated = true
		}
		for _, r := range revalNoops {
			r.zp.FromSerial = r.fromSerial
			r.zp.ToSerial = r.toSerial
			r.zp.Changes = nil
			r.zp.Revalidated = true
			p.NoOps++
		}
		p.Revalidated = len(revals) + len(revalNoops)
		c.mu.Unlock()
		c.noopsTotal.Add(uint64(len(revalNoops)))
	}

	for _, zp := range applied {
		c.zoneChanges[zp.Op].Inc()
		for _, ch := range zp.Changes {
			c.rrsetChanges[ch.Op].Inc()
		}
		if c.cfg.Publish != nil {
			c.cfg.Publish(zp.Origin, zp.ToSerial)
		}
	}

	conflicts := len(conflicted)
	c.mu.Lock()
	for _, zp := range conflicted {
		zp.Conflict = true
	}
	p.Conflicts = conflicts
	p.AppliedAt = time.Now()
	if conflicts > 0 {
		p.Status = StatusPartial
	}
	c.mu.Unlock()
	if conflicts > 0 {
		c.conflictsTotal.Add(uint64(conflicts))
		c.plansPartial.Inc()
	} else {
		c.plansApplied.Inc()
	}
	if len(applied) > 0 {
		c.applyBatch.Observe(float64(len(applied)))
	}
	c.applySeconds.Observe(time.Since(start).Seconds())
	return len(revals) + len(revalNoops), nil
}

// SubmitApply is the one-shot path: plan, and apply immediately when the
// validation gate passes. The returned plan's Status tells the outcome;
// the error covers apply-infrastructure failures only (a rejected
// changelist is data, not an error).
func (c *Controller) SubmitApply(cl Changelist) (*Plan, error) {
	p := c.Plan(cl)
	if p.Status != StatusPlanned {
		return p, nil
	}
	if err := c.Apply(p); err != nil {
		return p, err
	}
	return p, nil
}

// register assigns an ID and retains the plan, evicting the oldest beyond
// maxPlans.
func (c *Controller) register(p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	p.ID = c.nextID
	c.plans[p.ID] = p
	c.order = append(c.order, p.ID)
	c.lastID = p.ID
	for len(c.order) > maxPlans {
		delete(c.plans, c.order[0])
		c.order = c.order[1:]
	}
}

// Get returns the retained plan by ID (nil when evicted or unknown).
func (c *Controller) Get(id uint64) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[id]
}

// Latest returns the most recently registered plan (nil when none).
func (c *Controller) Latest() *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[c.lastID]
}

// Status is a point-in-time controller summary.
type Status struct {
	PlansPlanned  uint64
	PlansApplied  uint64
	PlansPartial  uint64
	PlansRejected uint64
	Conflicts     uint64
	NoOps         uint64
	ZonesServing  int
	// StoreGen is the ordinal of the installed zone set: one per applied
	// batch that changed it.
	StoreGen uint64
	// ShardRebuilds counts router shard maps cloned across all republishes;
	// ShardRebuilds/StoreGen is the mean dirty-shard width per apply.
	ShardRebuilds uint64
	PlansRetained int
	// ApplyP50 and ApplyP99 are plan-to-applied latency quantiles.
	ApplyP50 time.Duration
	ApplyP99 time.Duration
}

// StatusNow reads the live counters.
func (c *Controller) StatusNow() Status {
	c.mu.Lock()
	retained := len(c.plans)
	c.mu.Unlock()
	st := Status{
		PlansPlanned:  c.plansPlanned.Load(),
		PlansApplied:  c.plansApplied.Load(),
		PlansPartial:  c.plansPartial.Load(),
		PlansRejected: c.plansRejected.Load(),
		Conflicts:     c.conflictsTotal.Load(),
		NoOps:         c.noopsTotal.Load(),
		ZonesServing:  c.store.Len(),
		StoreGen:      c.store.Gen(),
		ShardRebuilds: c.store.ShardRebuilds(),
		PlansRetained: retained,
	}
	if q := c.applySeconds.Quantile(0.5); q == q { // NaN-safe
		st.ApplyP50 = time.Duration(q * float64(time.Second))
	}
	if q := c.applySeconds.Quantile(0.99); q == q {
		st.ApplyP99 = time.Duration(q * float64(time.Second))
	}
	return st
}
