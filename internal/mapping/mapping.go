// Package mapping models the Mapping Intelligence component of §3.2: it
// tracks edge-server liveness and load, decides which servers each client
// (resolver or ECS subnet) should be directed to, and publishes frequent
// metadata updates that the nameservers subscribe to. It implements
// nameserver.Tailorer so CDN/GTM hostnames resolve to proximal, healthy,
// uncrowded edges.
package mapping

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/pubsub"
)

// Edge is one content/GTM server (or datacenter) the mapper can direct
// clients to.
type Edge struct {
	ID       string
	Addr     netip.Addr
	Loc      netsim.GeoPoint
	Alive    bool
	Load     float64 // current utilization 0..1+
	Capacity float64 // relative capacity weight (>= 0)
}

// TopicMapping is the pubsub topic mapping updates ride on (the near
// real-time overlay multicast path).
const TopicMapping = pubsub.Topic("mapping")

// Config tunes the mapper.
type Config struct {
	// AnswersPerQuery is how many addresses each tailored answer carries.
	AnswersPerQuery int
	// TTL is the tailored answer TTL — 20 seconds in production (§5.2),
	// low so reaction to changing conditions is quick.
	TTL uint32
	// LoadPenaltyKm converts one unit of utilization into kilometers of
	// virtual distance, trading proximity against hot servers.
	LoadPenaltyKm float64
	// OverloadThreshold removes edges above this utilization from answers
	// entirely (unless nothing else is alive).
	OverloadThreshold float64
}

// DefaultConfig mirrors the paper's observable behaviour.
func DefaultConfig() Config {
	return Config{AnswersPerQuery: 2, TTL: 20, LoadPenaltyKm: 4000, OverloadThreshold: 0.95}
}

// Mapper is the mapping system.
type Mapper struct {
	cfg Config
	bus *pubsub.Bus // optional; updates are published when set

	mu sync.RWMutex
	// properties maps a hostname to its candidate edge IDs.
	properties map[dnswire.Name][]string
	edges      map[string]*Edge
	// clients maps a client key (resolver address or ECS prefix) to its
	// location; unknown clients get zero-distance treatment (load only).
	clients map[nameserver.ClientKey]netsim.GeoPoint

	// Version increments on every state change (the metadata version the
	// nameservers consume).
	Version uint64
}

// New creates a mapper. bus may be nil.
func New(cfg Config, bus *pubsub.Bus) *Mapper {
	return &Mapper{
		cfg:        cfg,
		bus:        bus,
		properties: make(map[dnswire.Name][]string),
		edges:      make(map[string]*Edge),
		clients:    make(map[nameserver.ClientKey]netsim.GeoPoint),
	}
}

// AddEdge registers an edge server (alive, unloaded).
func (m *Mapper) AddEdge(id string, addr netip.Addr, loc netsim.GeoPoint, capacity float64) {
	m.mu.Lock()
	m.edges[id] = &Edge{ID: id, Addr: addr, Loc: loc, Alive: true, Capacity: capacity}
	m.mu.Unlock()
	m.publish("edge-add", id)
}

// Edge returns a copy of the edge's state.
func (m *Mapper) Edge(id string) (Edge, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.edges[id]
	if !ok {
		return Edge{}, false
	}
	return *e, true
}

// BindProperty maps a hostname to candidate edges.
func (m *Mapper) BindProperty(host dnswire.Name, edgeIDs ...string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range edgeIDs {
		if _, ok := m.edges[id]; !ok {
			return fmt.Errorf("mapping: unknown edge %q", id)
		}
	}
	m.properties[host] = append([]string(nil), edgeIDs...)
	return nil
}

// SetClientLocation records where a client is (fed by geolocation in
// production, by the topology in simulation).
func (m *Mapper) SetClientLocation(client nameserver.ClientKey, loc netsim.GeoPoint) {
	m.mu.Lock()
	m.clients[client] = loc
	m.mu.Unlock()
}

// SetAlive flips edge liveness; mapping reacts "within seconds" in
// production, immediately here (delivery latency is the bus's job).
func (m *Mapper) SetAlive(id string, alive bool) {
	m.mu.Lock()
	if e, ok := m.edges[id]; ok {
		e.Alive = alive
	}
	m.mu.Unlock()
	m.publish("liveness", id)
}

// SetLoad updates an edge's utilization.
func (m *Mapper) SetLoad(id string, load float64) {
	m.mu.Lock()
	if e, ok := m.edges[id]; ok {
		e.Load = load
	}
	m.mu.Unlock()
	m.publish("load", id)
}

func (m *Mapper) publish(kind, id string) {
	m.mu.Lock()
	m.Version++
	v := m.Version
	m.mu.Unlock()
	if m.bus != nil {
		m.bus.Publish(TopicMapping, fmt.Sprintf("%s:%s:v%d", kind, id, v))
	}
}

// TailorA implements nameserver.Tailorer.
func (m *Mapper) TailorA(qname dnswire.Name, client nameserver.ClientKey) ([]netip.Addr, uint32, bool) {
	picks := m.Select(qname, client)
	if len(picks) == 0 {
		return nil, 0, false
	}
	addrs := make([]netip.Addr, len(picks))
	for i, e := range picks {
		addrs[i] = e.Addr
	}
	return addrs, m.cfg.TTL, true
}

// Select returns the best edges for a client, nearest-and-least-loaded
// first, up to AnswersPerQuery. Dead edges are excluded; overloaded edges
// are excluded unless nothing else remains.
func (m *Mapper) Select(qname dnswire.Name, client nameserver.ClientKey) []Edge {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids, ok := m.properties[qname]
	if !ok {
		return nil
	}
	loc, hasLoc := m.clients[client]
	type scored struct {
		e     Edge
		score float64
	}
	var alive, overloaded []scored
	for _, id := range ids {
		e := m.edges[id]
		if e == nil || !e.Alive {
			continue
		}
		score := 0.0
		if hasLoc {
			score += netsim.DistanceKm(loc, e.Loc)
		}
		score += e.Load * m.cfg.LoadPenaltyKm
		if e.Capacity > 0 {
			score /= e.Capacity
		}
		s := scored{*e, score}
		if e.Load >= m.cfg.OverloadThreshold {
			overloaded = append(overloaded, s)
		} else {
			alive = append(alive, s)
		}
	}
	if len(alive) == 0 {
		alive = overloaded // degraded service beats none (§4.2 principle iii)
	}
	sort.Slice(alive, func(i, j int) bool {
		if alive[i].score != alive[j].score {
			return alive[i].score < alive[j].score
		}
		return alive[i].e.ID < alive[j].e.ID
	})
	n := m.cfg.AnswersPerQuery
	if n > len(alive) {
		n = len(alive)
	}
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = alive[i].e
	}
	return out
}
