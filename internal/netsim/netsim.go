// Package netsim is the discrete-event network substrate under the
// platform's wide-area experiments. It models routers/hosts as nodes with
// per-prefix forwarding tables, links with propagation delay, and IP TTL
// semantics: while routing tables are divergent (e.g. during BGP
// convergence) packets may loop and are discarded when their TTL reaches
// zero — exactly the failure mode §4.1 of the paper describes for anycast
// withdrawals.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"akamaidns/internal/simtime"
)

// NodeID identifies a node in a Network.
type NodeID int

// Prefix is an opaque routing destination (an anycast or unicast prefix).
type Prefix string

// DefaultTTL is the initial IP TTL for injected packets.
const DefaultTTL = 64

// GeoPoint is a location on the globe.
type GeoPoint struct {
	Lat, Lon float64 // degrees
}

// earthRadiusKm and fiber propagation: light in fiber travels at roughly
// 2/3 c ≈ 200 km/ms; real paths are longer than geodesics, so we apply a
// path-stretch factor.
const (
	earthRadiusKm = 6371.0
	kmPerMs       = 200.0
	pathStretch   = 1.4
)

// DistanceKm returns the great-circle distance between two points.
func DistanceKm(a, b GeoPoint) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	la1, lo1 := toRad(a.Lat), toRad(a.Lon)
	la2, lo2 := toRad(b.Lat), toRad(b.Lon)
	dla := la2 - la1
	dlo := lo2 - lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PropDelay estimates one-way propagation delay between two points,
// including path stretch and a small per-link constant.
func PropDelay(a, b GeoPoint) time.Duration {
	ms := DistanceKm(a, b) / kmPerMs * pathStretch
	return time.Duration((ms + 0.2) * float64(time.Millisecond))
}

// Packet is a routed datagram. Payload is opaque to the network.
type Packet struct {
	Src     NodeID
	Dst     Prefix
	TTL     int
	Payload any
	// Hops records the path taken so far (excluding the source node).
	Hops []NodeID
	// sentAt is stamped at injection for convenience metrics.
	SentAt simtime.Time
}

// Handler consumes packets that arrive at a node which originates their
// destination prefix.
type Handler func(now simtime.Time, at *Node, pkt *Packet)

// Node is a router or host.
type Node struct {
	ID   NodeID
	Name string
	Loc  GeoPoint
	// FIB maps destination prefix to the neighbor to forward to. A node
	// that originates a prefix lists itself.
	fib       map[Prefix]NodeID
	neighbors map[NodeID]*Link
	handler   Handler
	net       *Network
	// Drops counts packets discarded here (TTL expiry or no route).
	Drops int
}

// Link is a bidirectional edge with symmetric propagation delay and an
// optional per-direction capacity. Zero capacity means unconstrained.
type Link struct {
	A, B  NodeID
	Delay time.Duration
	up    bool
	// capacity is packets/second per direction; 0 = infinite.
	capacity float64
	// burst is the queue depth in seconds of capacity.
	burst float64
	// per-direction leaky buckets (index 0: A→B, 1: B→A).
	level [2]float64
	last  [2]simtime.Time
	// Dropped counts congestion drops per direction.
	Dropped [2]uint64
}

// Up reports whether the link is passing traffic.
func (l *Link) Up() bool { return l.up }

// SetCapacity bounds the link to pps packets/second per direction with the
// given burst (queue) depth in seconds. pps <= 0 removes the bound.
func (l *Link) SetCapacity(pps, burstSeconds float64) {
	l.capacity = pps
	l.burst = burstSeconds
	l.level = [2]float64{}
}

func (l *Link) dir(from NodeID) int {
	if from == l.A {
		return 0
	}
	return 1
}

// admit runs the per-direction leaky bucket; false = congestion drop.
func (l *Link) admit(from NodeID, now simtime.Time) bool {
	if l.capacity <= 0 {
		return true
	}
	d := l.dir(from)
	elapsed := now.Sub(l.last[d]).Seconds()
	if elapsed > 0 {
		l.level[d] -= elapsed * l.capacity
		if l.level[d] < 0 {
			l.level[d] = 0
		}
		l.last[d] = now
	}
	l.level[d]++
	if l.level[d] > l.capacity*l.burst {
		l.level[d] = l.capacity * l.burst
		l.Dropped[d]++
		return false
	}
	return true
}

// Network is the collection of nodes and links plus the event clock.
type Network struct {
	Sched *simtime.Scheduler
	nodes map[NodeID]*Node
	next  NodeID
	// Lost counts packets dropped anywhere in the network.
	Lost int
}

// New creates an empty network bound to the given scheduler.
func New(sched *simtime.Scheduler) *Network {
	return &Network{Sched: sched, nodes: make(map[NodeID]*Node)}
}

// AddNode creates a node at loc.
func (n *Network) AddNode(name string, loc GeoPoint) *Node {
	id := n.next
	n.next++
	node := &Node{
		ID: id, Name: name, Loc: loc,
		fib:       make(map[Prefix]NodeID),
		neighbors: make(map[NodeID]*Link),
		net:       n,
	}
	n.nodes[id] = node
	return node
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// NumNodes reports the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Links enumerates every link exactly once, ordered by (A, B) node IDs so
// fault injectors iterating over them stay deterministic.
func (n *Network) Links() []*Link {
	var out []*Link
	for id := NodeID(0); id < n.next; id++ {
		nd := n.nodes[id]
		if nd == nil {
			continue
		}
		for _, nb := range nd.Neighbors() {
			if nb > id {
				out = append(out, nd.neighbors[nb])
			}
		}
	}
	return out
}

// Connect links two nodes with delay derived from their geo distance.
func (n *Network) Connect(a, b *Node) *Link {
	return n.ConnectDelay(a, b, PropDelay(a.Loc, b.Loc))
}

// ConnectDelay links two nodes with an explicit delay.
func (n *Network) ConnectDelay(a, b *Node, delay time.Duration) *Link {
	if a.ID == b.ID {
		panic("netsim: self link")
	}
	if l, ok := a.neighbors[b.ID]; ok {
		return l // already linked
	}
	l := &Link{A: a.ID, B: b.ID, Delay: delay, up: true}
	a.neighbors[b.ID] = l
	b.neighbors[a.ID] = l
	return l
}

// SetLink changes a link's administrative state. Packets in flight on a
// link that goes down are lost.
func (n *Network) SetLink(a, b NodeID, up bool) error {
	na := n.nodes[a]
	if na == nil {
		return fmt.Errorf("netsim: no node %d", a)
	}
	l, ok := na.neighbors[b]
	if !ok {
		return fmt.Errorf("netsim: no link %d-%d", a, b)
	}
	l.up = up
	return nil
}

// Neighbors returns the IDs of the node's link partners (regardless of link
// state), in ascending order so that callers iterating over them stay
// deterministic.
func (nd *Node) Neighbors() []NodeID {
	out := make([]NodeID, 0, len(nd.neighbors))
	for id := range nd.neighbors {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkTo returns the link to a neighbor, or nil.
func (nd *Node) LinkTo(id NodeID) *Link { return nd.neighbors[id] }

// SetHandler installs the local delivery callback.
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// SetRoute points the node's FIB entry for prefix at a neighbor (or at the
// node itself to deliver locally).
func (nd *Node) SetRoute(p Prefix, via NodeID) {
	if via != nd.ID {
		if _, ok := nd.neighbors[via]; !ok {
			panic(fmt.Sprintf("netsim: node %d routing %s via non-neighbor %d", nd.ID, p, via))
		}
	}
	nd.fib[p] = via
}

// ClearRoute removes the FIB entry for prefix.
func (nd *Node) ClearRoute(p Prefix) { delete(nd.fib, p) }

// Route reports the current next hop for prefix.
func (nd *Node) Route(p Prefix) (NodeID, bool) {
	v, ok := nd.fib[p]
	return v, ok
}

// Send injects a packet at the node, to be forwarded from the current
// virtual time.
func (nd *Node) Send(dst Prefix, payload any) {
	pkt := &Packet{Src: nd.ID, Dst: dst, TTL: DefaultTTL, Payload: payload, SentAt: nd.net.Sched.Now()}
	nd.net.forward(nd, pkt)
}

// SendReverse delivers a reply along the exact reverse of the path a
// received packet took (symmetric routing), arriving after the same
// cumulative delay. If any link on the reverse path is down the reply is
// lost.
func (nd *Node) SendReverse(orig *Packet, payload any) {
	n := nd.net
	// Reverse path: nd -> ... -> orig.Src.
	path := make([]NodeID, 0, len(orig.Hops)+1)
	for i := len(orig.Hops) - 2; i >= 0; i-- {
		path = append(path, orig.Hops[i])
	}
	path = append(path, orig.Src)
	var total time.Duration
	cur := nd
	ok := true
	for _, hop := range path {
		l := cur.neighbors[hop]
		if l == nil || !l.up || !l.admit(cur.ID, n.Sched.Now()) {
			ok = false
			break
		}
		total += l.Delay
		cur = n.nodes[hop]
	}
	if !ok {
		n.Lost++
		return
	}
	dstNode := n.nodes[orig.Src]
	reply := &Packet{Src: nd.ID, TTL: DefaultTTL, Payload: payload, SentAt: n.Sched.Now(), Hops: path}
	n.Sched.After(total, func(now simtime.Time) {
		if dstNode.handler != nil {
			dstNode.handler(now, dstNode, reply)
		}
	})
}

// forward moves a packet one hop per FIB state, re-evaluating the FIB at
// each hop's arrival time — this is what lets divergent tables loop packets.
func (n *Network) forward(at *Node, pkt *Packet) {
	via, ok := at.fib[pkt.Dst]
	if !ok {
		at.Drops++
		n.Lost++
		return
	}
	if via == at.ID {
		// Local delivery.
		if at.handler != nil {
			at.handler(n.Sched.Now(), at, pkt)
		}
		return
	}
	link := at.neighbors[via]
	if link == nil || !link.up {
		at.Drops++
		n.Lost++
		return
	}
	if !link.admit(at.ID, n.Sched.Now()) {
		// Congestion: the router queue overflows (§4.3.4 class 1's goal).
		at.Drops++
		n.Lost++
		return
	}
	if pkt.TTL--; pkt.TTL <= 0 {
		at.Drops++
		n.Lost++
		return
	}
	nxt := n.nodes[via]
	n.Sched.After(link.Delay, func(simtime.Time) {
		pkt.Hops = append(pkt.Hops, via)
		n.forward(nxt, pkt)
	})
}
