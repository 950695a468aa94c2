package chaos

import (
	"akamaidns/internal/anycast"
	"akamaidns/internal/core"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
)

// startChecker runs the periodic invariant sweep. Checks that hang off the
// workload itself (stale-serve, failover recovery) live in chaos.go; this
// sweep covers the platform-state invariants and catches outages that never
// recover (the workload only notices an envelope breach on the next
// success).
func (h *Harness) startChecker() {
	h.p.Sched.Every(checkEvery, func(now simtime.Time) {
		if now >= h.end {
			return
		}
		h.checkSuspensionCap(now)
		h.checkDelegationCoverage(now)
		h.checkStaleSuspend(now)
		h.checkOpenOutages(now)
	})
}

// finalCheck closes the books after the drain: any outage still open past
// the envelope is a violation even though no recovery probe ever returned.
func (h *Harness) finalCheck() {
	now := h.p.Sched.Now()
	h.checkOpenOutages(now)
	h.checkSuspensionCap(now)
	h.checkDelegationCoverage(now)
	if h.p.Opts.PullPropagation {
		h.checkPropagationConvergence(now)
	}
}

// checkSuspensionCap asserts the §4.2.1 consensus bound: the coordinator's
// own view of granted suspensions never exceeds its cap — even while
// coordinator replicas flap — and the platform as a whole always keeps at
// least one machine serving.
func (h *Harness) checkSuspensionCap(now simtime.Time) {
	active := h.p.Coord.ActiveSuspensions()
	if cap := h.p.Coord.Cap(); active > cap {
		h.violate("suspension-cap", "coordinator granted %d concurrent suspensions, cap %d", active, cap)
	}
	serving := 0
	for _, m := range h.p.Machines {
		if !m.Server.Suspended() {
			serving++
		}
	}
	if serving == 0 {
		h.violate("suspension-cap", "zero machines serving: the whole platform is withdrawn")
	}
}

// checkDelegationCoverage asserts §4.3.1's design goal: every enterprise's
// 6-cloud delegation set keeps at least one cloud that is both advertised
// (some PoP originates it with an unsuspended machine behind it) and
// routable (some router holds a BGP path to it).
func (h *Harness) checkDelegationCoverage(now simtime.Time) {
	for _, ent := range h.ents {
		alive := 0
		for _, c := range ent.DelegationSet {
			if h.cloudAlive(c) {
				alive++
			}
		}
		if alive == 0 {
			h.violate("delegation-coverage", "enterprise %s: no reachable cloud in delegation set %s",
				ent.Name, ent.DelegationSet)
		}
	}
}

func (h *Harness) cloudAlive(c anycast.CloudID) bool {
	advertised := false
	for _, pp := range h.p.PoPForCloud(c) {
		if !pp.Advertising(c) {
			continue
		}
		for _, m := range pp.Machines() {
			if !m.Server.Suspended() {
				advertised = true
				break
			}
		}
		if advertised {
			break
		}
	}
	if !advertised {
		return false
	}
	return len(h.p.World.Catchment(c.Prefix())) > 0
}

// checkStaleSuspend asserts the §4.2.2 reaction: a regular machine whose
// zone input has been stale for longer than the window plus detection grace
// must have self-suspended (input-delayed machines are exempt by design).
func (h *Harness) checkStaleSuspend(now simtime.Time) {
	for _, m := range h.regulars {
		if !m.Server.Stale(now) || m.Server.Suspended() {
			continue
		}
		age, ok := m.Server.InputAge(core.TopicZones, now)
		if ok && age > staleWindow+staleGrace {
			h.violate("stale-suspend", "machine %s serving with zone input %s old (window %s + grace %s)",
				m.ID, age, staleWindow, staleGrace)
		}
	}
}

// checkStaleServe asserts, on every answered probe, that the answer did not
// come from state older than the allowance: staleWindow (+grace) for
// regular machines, the full input delay (+grace) for input-delayed ones —
// "answers never served from a zone older than the input-delay window".
func (h *Harness) checkStaleServe(pp *probePair, now simtime.Time, resp *pop.DNSResponse) {
	m, ok := h.machByID[resp.Machine]
	if !ok {
		return
	}
	age, ok := m.Server.InputAge(core.TopicZones, now)
	if !ok {
		return
	}
	allowed := staleWindow + staleGrace
	if m.Delayed() {
		allowed = core.InputDelay + staleGrace
	}
	if age > allowed {
		h.violate("stale-serve", "machine %s answered %s/%s from zone input %s old (allowed %s)",
			m.ID, pp.client.c.Name, pp.ent.Name, age, allowed)
	}
}

// checkOpenOutages flags (client, enterprise) pairs that have been dark for
// longer than the envelope and still have not recovered. Each outage is
// reported once; partition excuse windows reset the clocks instead.
func (h *Harness) checkOpenOutages(now simtime.Time) {
	if now <= h.excuseUntil {
		return
	}
	for _, cc := range h.clients {
		for _, pp := range cc.pairs {
			if !pp.down || pp.reported {
				continue
			}
			if d := now.Sub(pp.failSince); d > envelope {
				pp.reported = true
				h.violate("failover-envelope", "%s/%s dark for %s with no recovery (envelope %s)",
					cc.c.Name, pp.ent.Name, d, envelope)
			}
		}
	}
}

// resetOutageClocks restarts every open outage's clock at now — called when
// a partition heals, because time spent inside an excused window must not
// count against the application-layer failover envelope.
func (h *Harness) resetOutageClocks(now simtime.Time) {
	for _, cc := range h.clients {
		for _, pp := range cc.pairs {
			if pp.down {
				pp.failSince = now
				pp.reported = false
			}
		}
	}
}
