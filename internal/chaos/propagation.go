package chaos

import (
	"sort"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/propagate"
	"akamaidns/internal/simtime"
)

// Propagation-plane chaos: under the propagation-storm scenario every
// regular machine serves from its own zone store fed by a pull loop over a
// fault-injectable link (core.Options.PullPropagation), so propagation
// failure is finally representable per machine. The scenario degrades a
// subset of pull links (loss, latency, corruption, duplication), takes a
// couple of links hard-down past the staleness window, and churns the
// control plane concurrently. The invariants:
//
//   - churn-atomicity (churn.go): no machine ever answers from an
//     uncommitted zone version — lagging machines serve older committed
//     versions, never torn or corrupt ones;
//   - stale-serve / stale-suspend (invariants.go): a machine whose pull
//     path is broken serves bounded-stale data, then self-suspends, and
//     resumes after catching up — freshness comes only from confirmed
//     sync cycles, not from notify receipt;
//   - propagation-convergence (below): after faults clear, every pull
//     machine's store is byte-identical to the controller's.

// pullScenarios names the scenarios that run with per-machine pull
// propagation instead of the shared store pointer.
var pullScenarios = map[string]bool{
	"propagation-storm": true,
}

// injectPropagationStorm schedules the lossy-link windows and hard
// outages. Parameters are drawn at schedule time so same-seed runs are
// byte-identical.
func (h *Harness) injectPropagationStorm() {
	regs := h.regulars
	order := h.rng.Perm(len(regs))

	// Lossy windows over roughly a third to two-thirds of the fleet.
	k := len(regs)/3 + h.rng.Intn(len(regs)/3+1)
	for i := 0; i < k && i < len(order); i++ {
		m := regs[order[i]]
		if m.PullLink == nil {
			continue
		}
		f := propagate.Faults{
			Delay:         5*time.Millisecond + h.randIn(0, 40*time.Millisecond),
			DelayJitter:   h.randIn(5*time.Millisecond, 50*time.Millisecond),
			DropRate:      0.3 + h.rng.Float64()*0.6,
			CorruptRate:   h.rng.Float64() * 0.2,
			DuplicateRate: h.rng.Float64() * 0.2,
		}
		dur := h.randIn(15*time.Second, 45*time.Second)
		at := h.faultStart(dur)
		h.p.Sched.After(at, func(simtime.Time) {
			m.PullLink.SetFaults(f)
			h.logf("pull-lossy", "%s pull link degraded for %s (drop=%.2f corrupt=%.2f dup=%.2f)",
				m.ID, dur, f.DropRate, f.CorruptRate, f.DuplicateRate)
		})
		h.p.Sched.After(at+dur, func(simtime.Time) {
			m.PullLink.SetFaults(propagate.Faults{Delay: 2 * time.Millisecond})
			h.logf("pull-lossy", "%s pull link healed", m.ID)
		})
	}

	// Hard outages on two further machines, held past the staleness
	// window: the §4.2.2 discipline must walk serve-stale → self-suspend
	// → resume after catch-up.
	for i := 0; i < 2 && k+i < len(order); i++ {
		m := regs[order[k+i]]
		if m.PullLink == nil {
			continue
		}
		dur := staleWindow + h.randIn(15*time.Second, 25*time.Second)
		at := h.faultStart(dur)
		h.p.Sched.After(at, func(simtime.Time) {
			m.PullLink.SetFaults(propagate.Faults{Down: true})
			h.logf("pull-outage", "%s pull link down for %s (past staleness window %s)",
				m.ID, dur, staleWindow)
		})
		h.p.Sched.After(at+dur, func(simtime.Time) {
			m.PullLink.SetFaults(propagate.Faults{Delay: 2 * time.Millisecond})
			h.logf("pull-outage", "%s pull link restored", m.ID)
		})
	}
}

// checkPropagationConvergence is the final propagation invariant: with all
// faults healed and the drain elapsed, every pull machine must hold
// exactly the controller's zones — same origins, same serials, identical
// content hashes — be marked synced, and be back in service.
func (h *Harness) checkPropagationConvergence(now simtime.Time) {
	ctl := h.p.Store.Serials()
	origins := make([]dnswire.Name, 0, len(ctl))
	for origin := range ctl {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i].String() < origins[j].String() })

	for _, m := range h.regulars {
		if m.Puller == nil {
			continue
		}
		st := m.Puller.Status()
		h.logf("pull-stats", "%s cycles=%d fail=%d delta=%d full=%d noop=%d del=%d resync=%d corrupt=%d timeout=%d",
			m.ID, st.Cycles, st.Failures, st.DeltaPulls, st.FullPulls, st.Noops, st.Deletes,
			st.Resyncs, st.CorruptRejected, st.Timeouts)
		if !st.Synced {
			h.violate("propagation-convergence", "machine %s never completed a sync cycle", m.ID)
			continue
		}
		// SerialSum fast path: equal order-independent (origin, serial)
		// hashes, each a field of its store's installed zone set, mean the
		// per-zone serial sweep below cannot find a mismatch; the
		// content-hash comparison still runs, because serials alone don't
		// prove bytes.
		serialsMatch := m.LocalStore.SerialSum() == h.p.Store.SerialSum()
		local := m.LocalStore.Serials()
		if len(local) != len(ctl) {
			h.violate("propagation-convergence", "machine %s holds %d zones, controller %d",
				m.ID, len(local), len(ctl))
			continue
		}
		for _, origin := range origins {
			serial, ok := local[origin]
			if !ok {
				h.violate("propagation-convergence", "machine %s missing zone %s", m.ID, origin)
				continue
			}
			if !serialsMatch && serial != ctl[origin] {
				h.violate("propagation-convergence", "machine %s zone %s at serial %d, controller at %d",
					m.ID, origin, serial, ctl[origin])
				continue
			}
			if propagate.ZoneSum(m.LocalStore.Get(origin)) != propagate.ZoneSum(h.p.Store.Get(origin)) {
				h.violate("propagation-convergence", "machine %s zone %s serial %d content differs from controller",
					m.ID, origin, serial)
			}
		}
		if m.Server.Suspended() {
			h.violate("propagation-convergence", "machine %s still suspended after catch-up and drain", m.ID)
		}
	}
}
