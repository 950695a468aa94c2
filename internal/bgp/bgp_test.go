package bgp

import (
	"math/rand"
	"testing"
	"time"

	"akamaidns/internal/netsim"
	"akamaidns/internal/simtime"
)

const pfx = netsim.Prefix("192.0.2.0/24")

// buildWorld wires a line A-B-C of speakers with unique ASNs.
func buildLine(t *testing.T) (*World, []*Speaker) {
	t.Helper()
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(1)))
	var sp []*Speaker
	var prev *netsim.Node
	for i, name := range []string{"a", "b", "c"} {
		nd := net.AddNode(name, netsim.GeoPoint{Lat: float64(i)})
		s := w.AddSpeaker(nd, ASN(100+i))
		sp = append(sp, s)
		if prev != nil {
			net.ConnectDelay(prev, nd, time.Millisecond)
			w.Peer(w.Speaker(prev.ID), s, nil, nil)
		}
		prev = nd
	}
	return w, sp
}

func TestOriginatePropagates(t *testing.T) {
	w, sp := buildLine(t)
	sp[0].Originate(pfx, 0)
	w.Net.Sched.RunFor(time.Second)
	for i, s := range sp {
		b := s.Best(pfx)
		if b == nil {
			t.Fatalf("speaker %d has no route", i)
		}
		if len(b.ASPath) != i {
			t.Fatalf("speaker %d AS path len = %d, want %d", i, len(b.ASPath), i)
		}
	}
	// FIBs point towards A.
	if via, ok := sp[2].Node().Route(pfx); !ok || via != sp[1].Node().ID {
		t.Fatalf("c routes via %v/%v", via, ok)
	}
	if via, _ := sp[0].Node().Route(pfx); via != sp[0].Node().ID {
		t.Fatal("origin does not deliver locally")
	}
}

func TestWithdrawPropagates(t *testing.T) {
	w, sp := buildLine(t)
	sp[0].Originate(pfx, 0)
	w.Net.Sched.RunFor(time.Second)
	sp[0].WithdrawOrigin(pfx)
	w.Net.Sched.RunFor(5 * time.Second)
	for i, s := range sp {
		if s.Best(pfx) != nil {
			t.Fatalf("speaker %d still has a route after withdraw", i)
		}
		if _, ok := s.Node().Route(pfx); ok {
			t.Fatalf("speaker %d FIB still routes after withdraw", i)
		}
	}
}

func TestAnycastPrefersCloserOrigin(t *testing.T) {
	// A(origin) - B - C - D(origin): B should pick A, C should pick D.
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(2)))
	var sp []*Speaker
	var prev *netsim.Node
	for i, name := range []string{"a", "b", "c", "d"} {
		nd := net.AddNode(name, netsim.GeoPoint{Lat: float64(i)})
		s := w.AddSpeaker(nd, ASN(200+i))
		sp = append(sp, s)
		if prev != nil {
			net.ConnectDelay(prev, nd, time.Millisecond)
			w.Peer(w.Speaker(prev.ID), s, nil, nil)
		}
		prev = nd
	}
	sp[0].Originate(pfx, 0)
	sp[3].Originate(pfx, 0)
	sched.RunFor(2 * time.Second)
	catch := w.Catchment(pfx)
	if catch[sp[1].Node().ID] != sp[0].Node().ID {
		t.Fatalf("b caught by %v, want a", catch[sp[1].Node().ID])
	}
	if catch[sp[2].Node().ID] != sp[3].Node().ID {
		t.Fatalf("c caught by %v, want d", catch[sp[2].Node().ID])
	}
}

func TestFailoverToOtherAnycastSite(t *testing.T) {
	// Same line; withdraw D's origin and confirm C fails over to A.
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(3)))
	var sp []*Speaker
	var prev *netsim.Node
	for i, name := range []string{"a", "b", "c", "d"} {
		nd := net.AddNode(name, netsim.GeoPoint{Lat: float64(i)})
		s := w.AddSpeaker(nd, ASN(300+i))
		sp = append(sp, s)
		if prev != nil {
			net.ConnectDelay(prev, nd, time.Millisecond)
			w.Peer(w.Speaker(prev.ID), s, nil, nil)
		}
		prev = nd
	}
	sp[0].Originate(pfx, 0)
	sp[3].Originate(pfx, 0)
	sched.RunFor(2 * time.Second)
	sp[3].WithdrawOrigin(pfx)
	sched.RunFor(10 * time.Second)
	catch := w.Catchment(pfx)
	for _, s := range sp[:3] {
		if catch[s.Node().ID] != sp[0].Node().ID {
			t.Fatalf("%s caught by %v after withdraw, want a", s.Node().Name, catch[s.Node().ID])
		}
	}
	// D itself has no origin and its only path is via C.
	if got := catch[sp[3].Node().ID]; got != sp[0].Node().ID {
		t.Fatalf("d caught by %v, want a", got)
	}
}

func TestLoopPrevention(t *testing.T) {
	// Triangle with a shared ASN on two nodes: the shared-AS node must
	// reject routes that transited its own AS.
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(4)))
	a := net.AddNode("a", netsim.GeoPoint{})
	b := net.AddNode("b", netsim.GeoPoint{Lat: 1})
	c := net.AddNode("c", netsim.GeoPoint{Lat: 2})
	net.ConnectDelay(a, b, time.Millisecond)
	net.ConnectDelay(b, c, time.Millisecond)
	sa := w.AddSpeaker(a, 65000)
	sb := w.AddSpeaker(b, 65001)
	sc := w.AddSpeaker(c, 65000) // same ASN as a
	w.Peer(sa, sb, nil, nil)
	w.Peer(sb, sc, nil, nil)
	sa.Originate(pfx, 0)
	sched.RunFor(time.Second)
	if sc.Best(pfx) != nil {
		t.Fatal("speaker accepted a route containing its own ASN")
	}
	if sb.Best(pfx) == nil {
		t.Fatal("intermediate speaker missing route")
	}
}

func TestMEDSelectsLowest(t *testing.T) {
	// B peers with two origins A1/A2 in the same AS; A2 advertises lower MED.
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(5)))
	a1 := net.AddNode("a1", netsim.GeoPoint{})
	a2 := net.AddNode("a2", netsim.GeoPoint{Lat: 1})
	b := net.AddNode("b", netsim.GeoPoint{Lat: 2})
	net.ConnectDelay(a1, b, time.Millisecond)
	net.ConnectDelay(a2, b, time.Millisecond)
	s1 := w.AddSpeaker(a1, 65100)
	s2 := w.AddSpeaker(a2, 65100)
	sb := w.AddSpeaker(b, 65101)
	w.Peer(s1, sb, nil, nil)
	w.Peer(s2, sb, nil, nil)
	s1.Originate(pfx, 50)
	s2.Originate(pfx, 10)
	sched.RunFor(time.Second)
	best := sb.Best(pfx)
	if best == nil || best.Learned != a2.ID {
		t.Fatalf("best = %+v, want via a2 (lower MED)", best)
	}
	// This is the input-delayed nameserver mechanism: the higher-MED
	// advertisement only wins when the lower one goes away.
	s2.WithdrawOrigin(pfx)
	sched.RunFor(5 * time.Second)
	best = sb.Best(pfx)
	if best == nil || best.Learned != a1.ID {
		t.Fatalf("best after withdraw = %+v, want via a1", best)
	}
}

func TestExportPolicySuppression(t *testing.T) {
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(6)))
	a := net.AddNode("a", netsim.GeoPoint{})
	b := net.AddNode("b", netsim.GeoPoint{Lat: 1})
	net.ConnectDelay(a, b, time.Millisecond)
	sa := w.AddSpeaker(a, 65200)
	sb := w.AddSpeaker(b, 65201)
	deny := func(peer ASN, r *Route) bool { return false }
	w.Peer(sa, sb, deny, nil)
	sa.Originate(pfx, 0)
	sched.RunFor(time.Second)
	if sb.Best(pfx) != nil {
		t.Fatal("suppressed route leaked")
	}
}

func TestExportPolicyPrepend(t *testing.T) {
	w, sp := buildLine(t)
	// Reset: build custom world with prepending on A->B.
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w = NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(7)))
	a := net.AddNode("a", netsim.GeoPoint{})
	b := net.AddNode("b", netsim.GeoPoint{Lat: 1})
	net.ConnectDelay(a, b, time.Millisecond)
	sa := w.AddSpeaker(a, 65300)
	sb := w.AddSpeaker(b, 65301)
	prepend := func(peer ASN, r *Route) bool {
		r.ASPath = append([]ASN{r.ASPath[0], r.ASPath[0]}, r.ASPath[1:]...)
		return true
	}
	w.Peer(sa, sb, prepend, nil)
	sa.Originate(pfx, 0)
	sched.RunFor(time.Second)
	best := sb.Best(pfx)
	// Un-prepended the path would be [65300]; the policy doubles the head.
	if best == nil || len(best.ASPath) != 2 {
		t.Fatalf("prepended path = %+v", best)
	}
	_ = sp
}

func TestNoExportCommunity(t *testing.T) {
	w, sp := buildLine(t)
	sp[0].Originate(pfx, 0, CommunityNoExport)
	w.Net.Sched.RunFor(time.Second)
	if sp[1].Best(pfx) == nil {
		t.Fatal("direct peer missing NO_EXPORT route")
	}
	if sp[2].Best(pfx) != nil {
		t.Fatal("NO_EXPORT route propagated beyond the neighbor AS")
	}
}

func TestSessionDownFlushesRoutes(t *testing.T) {
	w, sp := buildLine(t)
	sp[0].Originate(pfx, 0)
	w.Net.Sched.RunFor(time.Second)
	sp[1].SessionDown(sp[0].Node().ID)
	w.Net.Sched.RunFor(5 * time.Second)
	if sp[1].Best(pfx) != nil || sp[2].Best(pfx) != nil {
		t.Fatal("routes survived session down")
	}
	// Bring the session back; routes return.
	sp[1].SessionUp(sp[0].Node().ID)
	sp[0].SessionUp(sp[1].Node().ID)
	w.Net.Sched.RunFor(5 * time.Second)
	if sp[2].Best(pfx) == nil {
		t.Fatal("routes did not return after session up")
	}
}

func TestPathHuntingOnWithdraw(t *testing.T) {
	// Diamond: origin O, midpoints M1/M2, observer X. On withdraw, X may
	// briefly switch to the alternate (stale) path before converging —
	// classic path hunting. We assert eventual convergence and that the
	// observer received more updates than the minimum (evidence of hunting),
	// using a longer MRAI to make the window visible.
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	cfg := Config{ProcMin: time.Millisecond, ProcMax: 5 * time.Millisecond, MRAI: 2 * time.Second}
	w := NewWorld(net, cfg, rand.New(rand.NewSource(8)))
	o := net.AddNode("o", netsim.GeoPoint{})
	m1 := net.AddNode("m1", netsim.GeoPoint{Lat: 1})
	m2 := net.AddNode("m2", netsim.GeoPoint{Lat: -1})
	x := net.AddNode("x", netsim.GeoPoint{Lat: 0, Lon: 2})
	net.ConnectDelay(o, m1, time.Millisecond)
	net.ConnectDelay(o, m2, time.Millisecond)
	net.ConnectDelay(m1, x, time.Millisecond)
	net.ConnectDelay(m2, x, time.Millisecond)
	net.ConnectDelay(m1, m2, time.Millisecond)
	so := w.AddSpeaker(o, 65400)
	sm1 := w.AddSpeaker(m1, 65401)
	sm2 := w.AddSpeaker(m2, 65402)
	sx := w.AddSpeaker(x, 65403)
	w.Peer(so, sm1, nil, nil)
	w.Peer(so, sm2, nil, nil)
	w.Peer(sm1, sx, nil, nil)
	w.Peer(sm2, sx, nil, nil)
	w.Peer(sm1, sm2, nil, nil)
	so.Originate(pfx, 0)
	sched.RunFor(10 * time.Second)
	transitions := 0
	sx.OnBestChange = func(_ netsim.Prefix, _, _ *Route) { transitions++ }
	so.WithdrawOrigin(pfx)
	sched.RunFor(30 * time.Second)
	if sx.Best(pfx) != nil {
		t.Fatal("observer still has a route after withdraw")
	}
	if transitions < 2 {
		t.Fatalf("transitions = %d; expected path hunting (>= 2)", transitions)
	}
}

func TestConvergenceOnGeneratedTopology(t *testing.T) {
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	rng := rand.New(rand.NewSource(9))
	topo := netsim.GenTopology(net, netsim.DefaultRegions(), rng)
	w := NewWorld(net, DefaultConfig(), rng)
	for i, nd := range topo.Core {
		w.AddSpeaker(nd, ASN(1000+i))
	}
	// Peer every linked pair of core routers.
	for _, nd := range topo.Core {
		for _, nb := range nd.Neighbors() {
			if nb > nd.ID {
				w.Peer(w.Speaker(nd.ID), w.Speaker(nb), nil, nil)
			}
		}
	}
	origin := w.Speaker(topo.Core[0].ID)
	origin.Originate(pfx, 0)
	sched.RunFor(2 * time.Minute)
	catch := w.Catchment(pfx)
	if len(catch) != len(topo.Core) {
		t.Fatalf("catchment covers %d/%d nodes", len(catch), len(topo.Core))
	}
	for id, dst := range catch {
		if dst != origin.Node().ID {
			t.Fatalf("node %d caught by %d", id, dst)
		}
	}
}

func TestUpdateCountersAdvance(t *testing.T) {
	w, sp := buildLine(t)
	sp[0].Originate(pfx, 0)
	w.Net.Sched.RunFor(time.Second)
	if sp[0].UpdatesSent == 0 || sp[1].UpdatesReceived == 0 {
		t.Fatal("update counters did not advance")
	}
}

func TestPeerWithoutLinkPanics(t *testing.T) {
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	w := NewWorld(net, DefaultConfig(), rand.New(rand.NewSource(10)))
	a := net.AddNode("a", netsim.GeoPoint{})
	b := net.AddNode("b", netsim.GeoPoint{Lat: 1})
	sa := w.AddSpeaker(a, 1)
	sb := w.AddSpeaker(b, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Peer without link did not panic")
		}
	}()
	w.Peer(sa, sb, nil, nil)
}
