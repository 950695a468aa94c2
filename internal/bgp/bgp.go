// Package bgp implements a path-vector routing protocol over the netsim
// substrate: per-peer sessions on links, AS-path loop prevention, the
// standard decision process (local-pref, AS-path length, MED, tie-break),
// per-peer export policies with prepending and MED, and per-(peer,prefix)
// MinRouteAdvertisementInterval pacing.
//
// Convergence dynamics — fast propagation of new advertisements, and path
// hunting plus MRAI-induced tails on withdrawals — emerge from the protocol
// itself; the Figure 8 failover experiment measures them at the application
// layer exactly as the paper does.
package bgp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"akamaidns/internal/netsim"
	"akamaidns/internal/simtime"
)

// ASN is an autonomous-system number.
type ASN uint32

// Community is a BGP community tag (RFC 1997).
type Community uint32

// CommunityNoExport is the RFC 1997 NO_EXPORT community, which scopes an
// announcement to the neighbouring AS (§4.3.2's per-link traffic
// engineering).
const CommunityNoExport Community = 0xFFFFFF01

// Route is one path to a prefix.
type Route struct {
	Prefix      netsim.Prefix
	ASPath      []ASN
	MED         uint32
	LocalPref   uint32
	Communities []Community
	// Learned identifies the neighbor speaker the route came from; it is
	// the zero value for locally-originated routes.
	Learned netsim.NodeID
	local   bool
}

// HasCommunity reports whether the route carries c.
func (r *Route) HasCommunity(c Community) bool {
	for _, x := range r.Communities {
		if x == c {
			return true
		}
	}
	return false
}

func (r *Route) copy() *Route {
	c := *r
	c.ASPath = append([]ASN(nil), r.ASPath...)
	c.Communities = append([]Community(nil), r.Communities...)
	return &c
}

// hasLoop reports whether asn already appears in the path.
func (r *Route) hasLoop(asn ASN) bool {
	for _, a := range r.ASPath {
		if a == asn {
			return true
		}
	}
	return false
}

// ExportPolicy adjusts (or suppresses) a route advertised to a peer.
// Returning false suppresses the advertisement; the route value may be
// modified (prepending, MED, communities) before return.
type ExportPolicy func(peer ASN, r *Route) bool

// update is a single-prefix BGP message.
type update struct {
	from     netsim.NodeID
	prefix   netsim.Prefix
	withdraw bool
	route    *Route // nil for withdraw
}

// Config tunes protocol timing.
type Config struct {
	// ProcMin/ProcMax bound the per-update processing delay at a router.
	ProcMin, ProcMax time.Duration
	// MRAI is the per-(peer,prefix) minimum interval between successive
	// advertisements. Withdrawals are not paced (classic behaviour).
	MRAI time.Duration
}

// DefaultConfig mirrors a modern eBGP deployment: millisecond processing,
// sub-second pacing.
func DefaultConfig() Config {
	return Config{ProcMin: time.Millisecond, ProcMax: 10 * time.Millisecond, MRAI: 100 * time.Millisecond}
}

// Speaker is the BGP process on one netsim node.
type Speaker struct {
	node *netsim.Node
	net  *netsim.Network
	asn  ASN
	cfg  Config
	rng  *rand.Rand

	peers map[netsim.NodeID]*peerState
	// adjIn[prefix][peer] is the last route accepted from peer.
	adjIn map[netsim.Prefix]map[netsim.NodeID]*Route
	// origin holds locally-originated routes.
	origin map[netsim.Prefix]*Route
	// best is the current winner per prefix.
	best map[netsim.Prefix]*Route

	// UpdatesSent / UpdatesReceived count protocol messages for
	// instrumentation.
	UpdatesSent     int
	UpdatesReceived int

	// OnBestChange, when set, observes best-route transitions.
	OnBestChange func(prefix netsim.Prefix, old, new *Route)
}

type peerState struct {
	speaker *Speaker // remote speaker
	asn     ASN
	export  ExportPolicy
	// lastAdv tracks per-prefix last advertisement time for MRAI pacing.
	lastAdv map[netsim.Prefix]simtime.Time
	// pending marks prefixes with an armed MRAI-deferred send.
	pending map[netsim.Prefix]bool
	up      bool
}

// registry associates nodes with speakers so sessions can be wired by node.
type registry map[netsim.NodeID]*Speaker

// World holds all speakers of a simulation.
type World struct {
	Net      *netsim.Network
	cfg      Config
	rng      *rand.Rand
	speakers registry
}

// NewWorld creates a BGP world over the given network.
func NewWorld(net *netsim.Network, cfg Config, rng *rand.Rand) *World {
	return &World{Net: net, cfg: cfg, rng: rng, speakers: make(registry)}
}

// AddSpeaker starts a BGP process on node with the given ASN.
func (w *World) AddSpeaker(node *netsim.Node, asn ASN) *Speaker {
	if _, ok := w.speakers[node.ID]; ok {
		panic(fmt.Sprintf("bgp: node %d already has a speaker", node.ID))
	}
	s := &Speaker{
		node: node, net: w.Net, asn: asn, cfg: w.cfg,
		rng:    rand.New(rand.NewSource(w.rng.Int63())),
		peers:  make(map[netsim.NodeID]*peerState),
		adjIn:  make(map[netsim.Prefix]map[netsim.NodeID]*Route),
		origin: make(map[netsim.Prefix]*Route),
		best:   make(map[netsim.Prefix]*Route),
	}
	w.speakers[node.ID] = s
	return s
}

// Speaker returns the speaker on a node, or nil.
func (w *World) Speaker(id netsim.NodeID) *Speaker { return w.speakers[id] }

// Peer establishes a bidirectional eBGP session between the speakers on two
// linked nodes. Policies may be nil (advertise everything unchanged).
func (w *World) Peer(a, b *Speaker, aExport, bExport ExportPolicy) {
	if a.node.LinkTo(b.node.ID) == nil {
		panic("bgp: peering without a link")
	}
	a.peers[b.node.ID] = &peerState{speaker: b, asn: b.asn, export: aExport,
		lastAdv: make(map[netsim.Prefix]simtime.Time), pending: make(map[netsim.Prefix]bool), up: true}
	b.peers[a.node.ID] = &peerState{speaker: a, asn: a.asn, export: bExport,
		lastAdv: make(map[netsim.Prefix]simtime.Time), pending: make(map[netsim.Prefix]bool), up: true}
	// Initial table exchange.
	a.sendAll(b.node.ID)
	b.sendAll(a.node.ID)
}

// SetMRAI overrides this speaker's MinRouteAdvertisementInterval. Real
// deployments mix modern (sub-second) and classic (tens of seconds)
// pacing; the heterogeneity drives the withdraw-convergence tail.
func (s *Speaker) SetMRAI(d time.Duration) { s.cfg.MRAI = d }

// SetProcDelay overrides this speaker's per-update processing delay range.
// A small fraction of real routers have slow control planes; they dominate
// the convergence-time tail.
func (s *Speaker) SetProcDelay(min, max time.Duration) {
	s.cfg.ProcMin, s.cfg.ProcMax = min, max
}

// Originate injects a locally-originated route and propagates it.
func (s *Speaker) Originate(prefix netsim.Prefix, med uint32, comms ...Community) {
	r := &Route{Prefix: prefix, MED: med, LocalPref: 100, Communities: comms, local: true}
	s.origin[prefix] = r
	s.reselect(prefix)
}

// WithdrawOrigin removes a locally-originated route.
func (s *Speaker) WithdrawOrigin(prefix netsim.Prefix) {
	if _, ok := s.origin[prefix]; !ok {
		return
	}
	delete(s.origin, prefix)
	s.reselect(prefix)
}

// SessionDown tears down the session with a peer: routes learned from it are
// flushed and reselection runs. (Mirrors holdtimer expiry after link loss.)
func (s *Speaker) SessionDown(peer netsim.NodeID) {
	ps, ok := s.peers[peer]
	if !ok || !ps.up {
		return
	}
	ps.up = false
	prefixes := make([]netsim.Prefix, 0, len(s.adjIn))
	for prefix := range s.adjIn {
		prefixes = append(prefixes, prefix)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	for _, prefix := range prefixes {
		if _, ok := s.adjIn[prefix][peer]; ok {
			delete(s.adjIn[prefix], peer)
			s.reselect(prefix)
		}
	}
}

// SessionUp re-establishes a peer session and resends the full table.
func (s *Speaker) SessionUp(peer netsim.NodeID) {
	ps, ok := s.peers[peer]
	if !ok || ps.up {
		return
	}
	ps.up = true
	s.sendAll(peer)
	ps.speaker.sendAll(s.node.ID)
}

// sendAll advertises every current best route to one peer.
func (s *Speaker) sendAll(peer netsim.NodeID) {
	prefixes := make([]netsim.Prefix, 0, len(s.best))
	for p := range s.best {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	for _, p := range prefixes {
		s.advertiseTo(peer, p)
	}
}

// reselect recomputes the best route for prefix, installs the FIB entry, and
// propagates changes to peers.
func (s *Speaker) reselect(prefix netsim.Prefix) {
	old := s.best[prefix]
	var cands []*Route
	if r, ok := s.origin[prefix]; ok {
		cands = append(cands, r)
	}
	for peer, r := range s.adjIn[prefix] {
		if ps := s.peers[peer]; ps == nil || !ps.up {
			continue
		}
		cands = append(cands, r)
	}
	best := pickBest(cands)
	if routesEqual(old, best) {
		return
	}
	if best == nil {
		delete(s.best, prefix)
		s.node.ClearRoute(prefix)
	} else {
		s.best[prefix] = best
		if best.local {
			s.node.SetRoute(prefix, s.node.ID)
		} else {
			s.node.SetRoute(prefix, best.Learned)
		}
	}
	if s.OnBestChange != nil {
		s.OnBestChange(prefix, old, best)
	}
	// Propagate to all peers, in deterministic order.
	for _, peer := range s.peerIDs() {
		s.advertiseTo(peer, prefix)
	}
}

// peerIDs returns the peer node IDs in ascending order.
func (s *Speaker) peerIDs() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(s.peers))
	for id := range s.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pickBest runs the decision process.
func pickBest(cands []*Route) *Route {
	var best *Route
	for _, r := range cands {
		if best == nil || better(r, best) {
			best = r
		}
	}
	return best
}

// better reports whether a beats b in the decision process.
func better(a, b *Route) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	if a.local != b.local {
		return a.local // prefer locally-originated
	}
	return a.Learned < b.Learned
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Prefix != b.Prefix || a.MED != b.MED || a.LocalPref != b.LocalPref ||
		a.Learned != b.Learned || a.local != b.local || len(a.ASPath) != len(b.ASPath) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	return true
}

// advertiseTo sends the current best for prefix to a peer — as an
// advertisement (subject to MRAI pacing and export policy) or a withdrawal
// (sent immediately) when no exportable route exists.
func (s *Speaker) advertiseTo(peer netsim.NodeID, prefix netsim.Prefix) {
	ps := s.peers[peer]
	if ps == nil || !ps.up {
		return
	}
	best := s.best[prefix]
	exported := s.exportRoute(ps, best)
	if exported == nil {
		// Withdraw: no pacing. Suppress duplicate withdraws via lastAdv
		// bookkeeping: a peer that never saw an advert still gets one
		// withdraw (idempotent at the receiver).
		s.enqueue(ps, &update{from: s.node.ID, prefix: prefix, withdraw: true})
		return
	}
	now := s.net.Sched.Now()
	last, seen := ps.lastAdv[prefix]
	if !seen || now.Sub(last) >= s.cfg.MRAI {
		ps.lastAdv[prefix] = now
		s.enqueue(ps, &update{from: s.node.ID, prefix: prefix, route: exported})
		return
	}
	// MRAI pacing: arm a deferred send that re-reads state at fire time.
	if ps.pending[prefix] {
		return
	}
	ps.pending[prefix] = true
	fireAt := last.Add(s.cfg.MRAI)
	s.net.Sched.At(fireAt, func(now simtime.Time) {
		ps.pending[prefix] = false
		if !ps.up {
			return
		}
		cur := s.best[prefix]
		exp := s.exportRoute(ps, cur)
		if exp == nil {
			s.enqueue(ps, &update{from: s.node.ID, prefix: prefix, withdraw: true})
			return
		}
		ps.lastAdv[prefix] = now
		s.enqueue(ps, &update{from: s.node.ID, prefix: prefix, route: exp})
	})
}

// exportRoute applies split-horizon, loop prevention, prepending, and the
// per-peer export policy. Returns nil when nothing should be advertised.
func (s *Speaker) exportRoute(ps *peerState, best *Route) *Route {
	if best == nil {
		return nil
	}
	// Split horizon: do not re-advertise to the peer the route came from.
	if !best.local && best.Learned == ps.speaker.node.ID {
		return nil
	}
	// NO_EXPORT is honoured by the receiving AS: a learned route carrying
	// it must not be propagated over a further eBGP session. The origin's
	// own advertisement still happens (the community is attached for the
	// neighbor's benefit).
	if !best.local && best.HasCommunity(CommunityNoExport) && ps.asn != s.asn {
		return nil
	}
	out := best.copy()
	out.ASPath = append([]ASN{s.asn}, out.ASPath...)
	out.local = false
	out.Learned = s.node.ID // from the receiver's view
	if ps.export != nil && !ps.export(ps.asn, out) {
		return nil
	}
	return out
}

// enqueue delivers an update to the peer after link propagation plus
// processing delay. Updates over a down link are lost.
func (s *Speaker) enqueue(ps *peerState, u *update) {
	link := s.node.LinkTo(ps.speaker.node.ID)
	if link == nil || !link.Up() {
		return
	}
	s.UpdatesSent++
	proc := s.cfg.ProcMin
	if d := s.cfg.ProcMax - s.cfg.ProcMin; d > 0 {
		proc += time.Duration(s.rng.Int63n(int64(d)))
	}
	s.net.Sched.After(link.Delay+proc, func(simtime.Time) {
		ps.speaker.receive(u)
	})
}

// receive processes one update from a peer.
func (s *Speaker) receive(u *update) {
	ps := s.peers[u.from]
	if ps == nil || !ps.up {
		return
	}
	s.UpdatesReceived++
	m := s.adjIn[u.prefix]
	if u.withdraw {
		if m == nil {
			return
		}
		if _, had := m[u.from]; !had {
			return
		}
		delete(m, u.from)
		s.reselect(u.prefix)
		return
	}
	r := u.route
	if r.hasLoop(s.asn) {
		return
	}
	r.Learned = u.from
	if m == nil {
		m = make(map[netsim.NodeID]*Route)
		s.adjIn[u.prefix] = m
	}
	m[u.from] = r
	s.reselect(u.prefix)
}

// Catchment returns, for every node that currently has a route to prefix,
// the origin speaker it would reach — computed by walking FIBs. Nodes whose
// packets would loop or blackhole are omitted.
func (w *World) Catchment(prefix netsim.Prefix) map[netsim.NodeID]netsim.NodeID {
	out := make(map[netsim.NodeID]netsim.NodeID)
	for id := range w.speakers {
		if dst, ok := w.walk(prefix, id); ok {
			out[id] = dst
		}
	}
	return out
}

func (w *World) walk(prefix netsim.Prefix, from netsim.NodeID) (netsim.NodeID, bool) {
	cur := from
	for hops := 0; hops < netsim.DefaultTTL; hops++ {
		node := w.Net.Node(cur)
		via, ok := node.Route(prefix)
		if !ok {
			return 0, false
		}
		if via == cur {
			return cur, true
		}
		l := node.LinkTo(via)
		if l == nil || !l.Up() {
			return 0, false
		}
		cur = via
	}
	return 0, false
}
