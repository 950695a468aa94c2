package chaos

import (
	"fmt"
	"net/netip"
	"time"

	"akamaidns/internal/core"
	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// Zone churn under chaos: the control plane keeps rewriting live enterprise
// zones through the real plan/validate/apply pipeline while faults land —
// in the zone-churn-storm scenario, concurrently with a propagation stall.
// The atomicity oracle is address-version binding: every committed zone
// version moves the www A record to a serial-coded address, and the valid
// set accumulates exactly the committed addresses. A probe answer holding
// an address that was never committed, or more than one A record, is a
// half-applied zone leaking to a client — the churn-atomicity violation.

// churnTracker owns the in-simulation control plane and the committed
// address sets per churned zone.
type churnTracker struct {
	ctl *ctlplane.Controller
	// valid maps each churned origin to its committed www addresses (the
	// seed zone's address plus one per applied version).
	valid map[dnswire.Name]map[[4]byte]bool
}

// churnAddrFor encodes a zone serial into the www address of that version.
func churnAddrFor(serial uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 3, byte(serial >> 8), byte(serial)})
}

// churnInit builds the tracker on first use: a controller over the
// platform's shared store whose applies propagate through the same pubsub
// topic the CDN metadata path uses, so input-freshness accounting sees
// control-plane changes exactly like portal ones.
func (h *Harness) churnInit() *churnTracker {
	if h.churn != nil {
		return h.churn
	}
	tr := &churnTracker{
		valid: make(map[dnswire.Name]map[[4]byte]bool),
	}
	tr.ctl = ctlplane.New(h.p.Store, ctlplane.Config{
		// History is nil outside pull scenarios; when set, each commit is
		// recorded so per-machine pullers can fetch IXFR deltas against it.
		History: h.p.History,
		Publish: func(origin dnswire.Name, serial uint32) {
			h.p.Bus.Publish(core.TopicZones, fmt.Sprintf("zone:%s:serial:%d", origin, serial))
		},
	})
	h.churn = tr
	return tr
}

// seedValid records the currently serving www addresses of origin as
// committed state.
func (tr *churnTracker) seedValid(h *Harness, origin dnswire.Name) {
	if tr.valid[origin] != nil {
		return
	}
	set := make(map[[4]byte]bool)
	z := h.p.Store.Get(origin)
	if z != nil {
		www, err := origin.Prepend("www")
		if err == nil {
			for _, rr := range z.RRset(www, dnswire.TypeA) {
				if a, ok := rr.(*dnswire.A); ok {
					set[a.Addr.As4()] = true
				}
			}
		}
	}
	tr.valid[origin] = set
}

// applyOnce drives one churn change through the control plane: the desired
// state is the serving zone with its www address moved to the next serial's
// coded address, submitted as a changelist and applied atomically.
func (tr *churnTracker) applyOnce(h *Harness, origin dnswire.Name) {
	cur := h.p.Store.Get(origin)
	if cur == nil {
		return
	}
	tr.seedValid(h, origin)
	serial := cur.Serial() + 1
	addr := churnAddrFor(serial)
	www, err := origin.Prepend("www")
	if err != nil {
		return
	}
	recs := cur.AllRecords()
	for _, rr := range recs {
		switch r := rr.(type) {
		case *dnswire.SOA:
			r.Serial = serial
		case *dnswire.A:
			if r.Header().Name == www {
				r.Addr = addr
			}
		}
	}
	desired, err := zone.Build(origin, recs)
	if err != nil {
		h.violate("churn-apply", "rebuilding %s for serial %d: %v", origin, serial, err)
		return
	}
	p, err := tr.ctl.SubmitApply(ctlplane.Changelist{Zones: []ctlplane.ZoneChange{
		{Origin: origin, Desired: desired},
	}})
	if err != nil {
		h.violate("churn-apply", "apply %s serial %d: %v", origin, serial, err)
		return
	}
	if p.Status != ctlplane.StatusApplied {
		h.violate("churn-apply", "apply %s serial %d: plan %s %v", origin, serial, p.Status, p.Rejections)
		return
	}
	// Only after the batch committed does the new address become valid.
	tr.valid[origin][addr.As4()] = true
	h.logf("churn", "%s applied serial %d (www → %s, %d rrset changes)",
		origin, serial, addr, len(p.Zones[0].Changes))
}

// injectZoneChurn schedules a storm of control-plane applies across the
// fault window, each rewriting one enterprise zone to its next version.
func (h *Harness) injectZoneChurn() {
	tr := h.churnInit()
	for _, ent := range h.ents {
		tr.seedValid(h, ent.Zones[0])
	}
	n := 20 + h.rng.Intn(11)
	for i := 0; i < n; i++ {
		origin := h.ents[h.rng.Intn(len(h.ents))].Zones[0]
		at := h.faultStart(time.Second)
		h.p.Sched.After(at, func(simtime.Time) { h.applyChurn(origin) })
	}
}

func (h *Harness) applyChurn(origin dnswire.Name) {
	if h.p.Sched.Now() >= h.end {
		return
	}
	h.churn.applyOnce(h, origin)
}

// checkChurnAnswer is the churn-atomicity invariant, run on every answered
// probe for a churned zone: the answer must carry exactly one A record, and
// its address must belong to a committed zone version. Anything else means
// a half-applied zone was visible to a client — the apply path lost its
// whole-zone atomicity.
func (h *Harness) checkChurnAnswer(pp *probePair, now simtime.Time, resp *pop.DNSResponse) {
	if h.churn == nil {
		return
	}
	valid := h.churn.valid[pp.ent.Zones[0]]
	if valid == nil {
		return
	}
	var addrs []netip.Addr
	for _, rr := range resp.Msg.Answers {
		if a, ok := rr.(*dnswire.A); ok {
			addrs = append(addrs, a.Addr)
		}
	}
	if len(addrs) != 1 {
		h.violate("churn-atomicity", "%s/%s answered %d A records, want exactly 1 (half-applied zone?)",
			pp.client.c.Name, pp.ent.Name, len(addrs))
		return
	}
	if !valid[addrs[0].As4()] {
		h.violate("churn-atomicity", "%s/%s answered %s — not a committed version of %s",
			pp.client.c.Name, pp.ent.Name, addrs[0], pp.ent.Zones[0])
	}
}
