package chaos

import (
	"errors"
	"time"

	"akamaidns/internal/attack"
	"akamaidns/internal/monitor"
	"akamaidns/internal/netsim"
	"akamaidns/internal/simtime"
)

// This file holds the reusable fault primitives scenarios compose: each
// schedules an inject/heal pair on the virtual clock, draws its parameters
// from the harness rng at schedule time, and logs both edges so the event
// log narrates exactly what broke and when.

// randIn draws a duration uniformly from [lo, hi).
func (h *Harness) randIn(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(h.rng.Int63n(int64(hi-lo)))
}

// faultStart draws an injection offset inside the fault window, leaving
// room at the end for the fault's own duration.
func (h *Harness) faultStart(dur time.Duration) time.Duration {
	span := h.cfg.FaultWindow - dur
	if span < 5*time.Second {
		span = 5 * time.Second
	}
	return h.randIn(5*time.Second, span)
}

// setLink flips one link's administrative state and the BGP sessions riding
// it, mirroring how a real fiber cut both drops packets and tears the
// session.
func (h *Harness) setLink(l *netsim.Link, up bool, quiet bool) {
	h.p.Net.SetLink(l.A, l.B, up)
	sa, sb := h.p.World.Speaker(l.A), h.p.World.Speaker(l.B)
	if sa != nil && sb != nil {
		if up {
			sa.SessionUp(l.B)
			sb.SessionUp(l.A)
		} else {
			sa.SessionDown(l.B)
			sb.SessionDown(l.A)
		}
	}
	if !quiet {
		h.logf("link", "%d-%d %s", l.A, l.B, upDown(up))
	}
}

// coreLinks lists the transit-core links in deterministic order.
func (h *Harness) coreLinks() []*netsim.Link {
	var out []*netsim.Link
	for _, l := range h.p.Net.Links() {
		if h.coreSet[l.A] && h.coreSet[l.B] {
			out = append(out, l)
		}
	}
	return out
}

// injectLinkFlap schedules one core link going down for dur.
func (h *Harness) injectLinkFlap() {
	links := h.coreLinks()
	if len(links) == 0 {
		return
	}
	l := links[h.rng.Intn(len(links))]
	dur := h.randIn(2*time.Second, 15*time.Second)
	at := h.faultStart(dur)
	h.p.Sched.After(at, func(simtime.Time) { h.setLink(l, false, false) })
	h.p.Sched.After(at+dur, func(simtime.Time) { h.setLink(l, true, false) })
}

// injectPartition isolates one region's transit core from the rest of the
// world for dur. Outages during the partition are excused — connectivity
// loss at that scale is the network's failure, not the platform's — but the
// moment it heals the failover clocks restart and the envelope applies.
func (h *Harness) injectPartition() {
	regions := h.p.Topo.Regions
	rg := regions[h.rng.Intn(len(regions))]
	inRegion := make(map[netsim.NodeID]bool)
	for _, nd := range h.p.Topo.ByRgn[rg.Name] {
		inRegion[nd.ID] = true
	}
	var cut []*netsim.Link
	for _, l := range h.coreLinks() {
		if inRegion[l.A] != inRegion[l.B] {
			cut = append(cut, l)
		}
	}
	dur := h.randIn(20*time.Second, 40*time.Second)
	at := h.faultStart(dur)
	h.p.Sched.After(at, func(now simtime.Time) {
		if e := now.Add(dur); e > h.excuseUntil {
			h.excuseUntil = e
		}
		h.logf("partition", "region %s isolated (%d inter-region links cut) for %s", rg.Name, len(cut), dur)
		for _, l := range cut {
			h.setLink(l, false, true)
		}
	})
	h.p.Sched.After(at+dur, func(now simtime.Time) {
		for _, l := range cut {
			h.setLink(l, true, true)
		}
		h.resetOutageClocks(now)
		h.logf("partition", "region %s healed", rg.Name)
	})
}

// injectPoPWithdraw withdraws every cloud at one PoP (a traffic-engineering
// action or total-PoP failure, §4.3.2) and reconciles it back later.
func (h *Harness) injectPoPWithdraw() {
	pp := h.p.PoPs[h.rng.Intn(len(h.p.PoPs))]
	dur := h.randIn(10*time.Second, 25*time.Second)
	at := h.faultStart(dur)
	h.p.Sched.After(at, func(now simtime.Time) {
		h.logf("pop-withdraw", "%s withdraws all clouds", pp.Name)
		pp.WithdrawAll(now)
	})
	h.p.Sched.After(at+dur, func(now simtime.Time) {
		pp.Reconcile(now)
		h.logf("pop-withdraw", "%s reconciled", pp.Name)
	})
}

// injectPoPLoss severs one PoP's uplinks entirely: the router keeps
// originating but nobody hears it, so BGP routes time out of the rest of
// the world — the §4.1 anycast failover case.
func (h *Harness) injectPoPLoss() {
	pp := h.p.PoPs[h.rng.Intn(len(h.p.PoPs))]
	node := pp.Node
	neighbors := node.Neighbors()
	dur := h.randIn(15*time.Second, 35*time.Second)
	at := h.faultStart(dur)
	flip := func(up bool) {
		for _, nb := range neighbors {
			if l := node.LinkTo(nb); l != nil {
				h.setLink(l, up, true)
			}
		}
	}
	h.p.Sched.After(at, func(simtime.Time) {
		h.logf("pop-loss", "%s loses all %d uplinks", pp.Name, len(neighbors))
		flip(false)
	})
	h.p.Sched.After(at+dur, func(simtime.Time) {
		flip(true)
		h.logf("pop-loss", "%s uplinks restored", pp.Name)
	})
}

// injectQoD fires bursts of query-of-death packets at one cloud of one
// enterprise. Machines crash, monitoring agents suspend and restart them
// (§4.2.1), and the QoD firewall contains the signature on the machines
// that carry it (§4.2.4).
func (h *Harness) injectQoD() {
	ent := h.ents[h.rng.Intn(len(h.ents))]
	cloud := ent.DelegationSet[h.rng.Intn(len(ent.DelegationSet))]
	gen := attack.NewGenerator(attack.QueryOfDeath, ent.Zones[0], 32, nil, h.rng)
	injector := h.clients[h.rng.Intn(len(h.clients))].c
	bursts := 2 + h.rng.Intn(2)
	for b := 0; b < bursts; b++ {
		at := h.faultStart(time.Second)
		n := 10 + h.rng.Intn(10)
		h.p.Sched.After(at, func(simtime.Time) {
			h.logf("qod", "burst of %d query-of-death at cloud %d (zone %s)", n, cloud, ent.Zones[0])
		})
		for i := 0; i < n; i++ {
			h.p.Sched.After(at+time.Duration(i)*50*time.Millisecond, func(simtime.Time) {
				ev := gen.Next()
				h.injectPort++
				injector.InjectRaw(cloud, ev.Resolver, 2000+h.injectPort, ev.Msg, false, ev.IPTTL)
			})
		}
	}
}

// injectSuspensionStorm is a buggy monitoring-agent wave: the agents of a
// majority of regular machines start failing a health probe at once, and
// ask the coordinator to suspend their machines on every sweep, while two
// coordinator replicas flap mid-wave. The consensus cap must hold the line
// — only cap-many grants at a time — and the replicas must resync on
// recovery so the slots the agents release once the probe passes again
// are accounted for.
func (h *Harness) injectSuspensionStorm() {
	regs := h.regulars
	want := len(regs) * 3 / 5
	dur := h.randIn(15*time.Second, 30*time.Second)
	at := h.faultStart(dur)
	order := h.rng.Perm(len(regs))
	storming := false
	buggy := monitor.Probe{Name: "buggy", Run: func(simtime.Time) error {
		if storming {
			return errBuggyProbe
		}
		return nil
	}}
	var grants, denials uint64
	h.p.Sched.After(at, func(simtime.Time) {
		h.p.Coord.SetReplicaUp(1, false)
		storming = true
		for _, idx := range order[:want] {
			regs[idx].Agent.AddProbe(buggy)
		}
		grants, denials = h.p.Coord.Grants, h.p.Coord.Denials
		h.logf("storm", "buggy probe on %d machines' agents (cap %d), replica 1 down", want, h.p.Coord.Cap())
	})
	h.p.Sched.After(at+dur/2, func(simtime.Time) {
		h.p.Coord.SetReplicaUp(3, false)
		h.p.Coord.SetReplicaUp(1, true)
		h.logf("storm", "replica 3 down, replica 1 resynced")
	})
	h.p.Sched.After(at+dur, func(simtime.Time) {
		storming = false
		h.p.Coord.SetReplicaUp(3, true)
		h.logf("storm", "buggy probe cleared: %d grants, %d denials in the wave; replica 3 resynced",
			h.p.Coord.Grants-grants, h.p.Coord.Denials-denials)
	})
}

var errBuggyProbe = errors.New("buggy agent probe")

// injectFlood runs a random-subdomain attack (§4.3.4 class 3) against one
// enterprise's cloud, laundered through the vantage-point resolvers so the
// scoring pipeline has to separate it from the live workload.
func (h *Harness) injectFlood() {
	ent := h.ents[h.rng.Intn(len(h.ents))]
	cloud := ent.DelegationSet[h.rng.Intn(len(ent.DelegationSet))]
	var victims []attack.Victim
	for i, cc := range h.clients {
		victims = append(victims, attack.Victim{Resolver: cc.c.Addr, IPTTL: 30 + i})
	}
	gen := attack.NewGenerator(attack.RandomSubdomain, ent.Zones[0], 64, victims, h.rng)
	injector := h.clients[h.rng.Intn(len(h.clients))].c
	dur := h.randIn(6*time.Second, 10*time.Second)
	at := h.faultStart(dur)
	const gap = 2 * time.Millisecond
	var step func(now simtime.Time)
	var stop simtime.Time
	var sent int
	step = func(now simtime.Time) {
		if now >= stop {
			h.logf("flood", "random-subdomain flood done: %d queries", sent)
			return
		}
		ev := gen.Next()
		h.injectPort++
		injector.InjectRaw(cloud, ev.Resolver, 3000+h.injectPort, ev.Msg, false, ev.IPTTL)
		sent++
		h.p.Sched.After(gap, step)
	}
	h.p.Sched.After(at, func(now simtime.Time) {
		stop = now.Add(dur)
		h.logf("flood", "random-subdomain flood at cloud %d (zone %s) for %s", cloud, ent.Zones[0], dur)
		step(now)
	})
}

// injectZoneStall cuts a few regular machines' metadata subscriptions for
// longer than the staleness window: their zone inputs freeze, CheckStaleness
// must self-suspend them (§4.2.2), and once delivery resumes the next
// heartbeat revives them.
func (h *Harness) injectZoneStall() {
	regs := h.regulars
	k := 2 + h.rng.Intn(3)
	if k > len(regs) {
		k = len(regs)
	}
	order := h.rng.Perm(len(regs))
	dur := h.cfg.StaleWindow + h.randIn(10*time.Second, 20*time.Second)
	at := h.faultStart(dur)
	h.p.Sched.After(at, func(simtime.Time) {
		for _, idx := range order[:k] {
			regs[idx].Subscription().SetLost(true)
			h.logf("zone-stall", "machine %s metadata subscription lost", regs[idx].ID)
		}
	})
	h.p.Sched.After(at+dur, func(simtime.Time) {
		for _, idx := range order[:k] {
			regs[idx].Subscription().SetLost(false)
			h.logf("zone-stall", "machine %s metadata subscription restored", regs[idx].ID)
		}
	})
}
