package core

import (
	"fmt"
	"net/netip"
	"time"

	"akamaidns/internal/anycast"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/pop"
	"akamaidns/internal/resolver"
	"akamaidns/internal/simtime"
)

// Client is a vantage point / resolver site attached to the simulated
// Internet. It can fire raw queries at anycast clouds (the failover
// experiment's probes) and serves as the netsim transport for a full
// recursive resolver.
type Client struct {
	Name string
	Node *netsim.Node
	p    *Platform
	// Addr is the client's source key as nameservers see it.
	Addr string
	// nextPort cycles ephemeral source ports.
	nextPort uint16
	pending  map[uint16]func(now simtime.Time, resp *pop.DNSResponse)
	nextID   uint16
	// Legit marks this client's traffic as ground-truth legitimate.
	Legit bool
}

// AddClient attaches a client stub in the given region ("" = weighted
// random) and starts BGP-free plain routing via its neighbors' tables.
func (p *Platform) AddClient(name, region string) *Client {
	p.clientSeq++
	node := p.Topo.AttachStub(fmt.Sprintf("client-%s", name), region, 1)
	// Clients are stubs without BGP: they default-route via their first
	// neighbor for every anycast prefix.
	c := &Client{
		Name: name, Node: node, p: p,
		Addr:    fmt.Sprintf("resolver-%s", name),
		pending: make(map[uint16]func(simtime.Time, *pop.DNSResponse)),
		Legit:   true,
	}
	for cl := anycast.CloudID(0); cl < anycast.NumClouds; cl++ {
		node.SetRoute(cl.Prefix(), node.Neighbors()[0])
	}
	node.SetHandler(c.handle)
	// Register the client's location with the mapper (EdgeScape-style
	// geolocation).
	p.Mapper.SetClientLocation(nameserver.ResolverKey(c.Addr), node.Loc)
	return c
}

func (c *Client) handle(now simtime.Time, _ *netsim.Node, pkt *netsim.Packet) {
	resp, ok := pkt.Payload.(*pop.DNSResponse)
	if !ok || resp.Msg == nil {
		return
	}
	if cb, ok := c.pending[resp.Msg.ID]; ok {
		delete(c.pending, resp.Msg.ID)
		cb(now, resp)
	}
}

// Probe sends one query for (qname, qtype) to a cloud and invokes cb with
// the response, or with nil at timeout.
func (c *Client) Probe(cloud anycast.CloudID, qname dnswire.Name, qtype dnswire.Type, timeout time.Duration, cb func(now simtime.Time, resp *pop.DNSResponse)) {
	c.nextID++
	c.nextPort++
	id := c.nextID
	q := dnswire.NewQuery(id, qname, qtype)
	done := false
	c.pending[id] = func(now simtime.Time, resp *pop.DNSResponse) {
		if done {
			return
		}
		done = true
		cb(now, resp)
	}
	c.Node.Send(cloud.Prefix(), &pop.DNSPacket{
		Resolver: c.Addr,
		SrcPort:  1024 + c.nextPort%60000,
		Msg:      q,
		Legit:    c.Legit,
	})
	c.p.Sched.After(timeout, func(now simtime.Time) {
		if done {
			return
		}
		done = true
		delete(c.pending, id)
		cb(now, nil)
	})
}

// transport adapts the client to resolver.Transport: server addresses in
// 198.18.0.0/24 map to anycast clouds.
type transport struct{ c *Client }

// Send implements resolver.Transport.
func (t transport) Send(now simtime.Time, server string, q *dnswire.Message, done func(simtime.Time, *dnswire.Message)) {
	addr, err := netip.ParseAddr(server)
	if err != nil {
		return
	}
	cloud, ok := AddrCloud(addr)
	if !ok {
		return
	}
	c := t.c
	c.nextPort++
	c.nextID++
	id := c.nextID
	q.ID = id // own the ID space so probe and resolver traffic never collide
	c.pending[id] = func(tn simtime.Time, resp *pop.DNSResponse) {
		done(tn, resp.Msg)
	}
	c.Node.Send(cloud.Prefix(), &pop.DNSPacket{
		Resolver: c.Addr,
		SrcPort:  1024 + c.nextPort%60000,
		Msg:      q,
		Legit:    c.Legit,
	})
}

// NewResolver builds a full caching recursive resolver at this client. Its
// hints point at the delegation set of the given enterprise (as the parent
// zone's NS records would).
func (c *Client) NewResolver(cfg resolver.Config, ent *Enterprise) *resolver.Resolver {
	var hints []resolver.Hint
	for _, zoneName := range ent.Zones {
		for _, cl := range ent.DelegationSet {
			hints = append(hints, resolver.Hint{
				Zone:   zoneName,
				NSName: dnswire.MustName(cl.NSName()),
				Server: CloudAddr(cl).String(),
			})
		}
	}
	// The CDN zone rides the 13 "toplevel" clouds.
	for cl := anycast.CloudID(0); cl < anycast.TopLevelClouds; cl++ {
		hints = append(hints, resolver.Hint{
			Zone:   CDNZone,
			NSName: dnswire.MustName(cl.NSName()),
			Server: CloudAddr(cl).String(),
		})
	}
	return resolver.New(c.p.Sched, cfg, transport{c}, hints, c.p.rng)
}

// InjectRaw sends an arbitrary pre-built DNS packet (attack traffic) into a
// cloud from this client's location. resolverKey overrides the source
// (address spoofing); ipttlOverride > 0 forges the IP TTL the nameserver
// observes (the §4.3.4 class-5 attacker who crafts the initial TTL).
func (c *Client) InjectRaw(cloud anycast.CloudID, resolverKey string, srcPort uint16, msg *dnswire.Message, legit bool, ipttlOverride int) {
	c.Node.Send(cloud.Prefix(), &pop.DNSPacket{
		Resolver:      resolverKey,
		SrcPort:       srcPort,
		Msg:           msg,
		Legit:         legit,
		IPTTLOverride: ipttlOverride,
	})
}
