package core

import (
	"fmt"
	"net/netip"

	"akamaidns/internal/anycast"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/pop"
	"akamaidns/internal/resolver"
	"akamaidns/internal/simtime"
	"akamaidns/internal/twotier"
	"akamaidns/internal/zone"
)

// This file builds §5.2's Two-Tier delegation system inside the platform:
// an anycast "toplevel" zone delegates the CDN hostname zone (NS TTL
// 4000 s) to unicast "lowlevel" nameservers co-located with the CDN edge,
// which serve the 20-second-TTL hostnames. Lowlevels are deployable where
// eBGP injection is impossible for anycast — here they simply originate
// their own unicast prefixes.

// TwoTierZone is the toplevel CDN entry zone (the "akamai.net" analogue).
var TwoTierZone = dnswire.MustName("cdn.akamaidns.test")

// LowlevelZone is the delegated hostname zone (the "w10.akamai.net"
// analogue).
var LowlevelZone = dnswire.MustName("w10.cdn.akamaidns.test")

// Lowlevel is one unicast lowlevel nameserver deployed with the CDN edge.
type Lowlevel struct {
	ID     string
	Addr   netip.Addr
	Node   *netsim.Node
	Server *nameserver.Server
	// Served counts queries it answered.
	Served uint64
}

// Prefix returns the netsim routing prefix for the lowlevel's unicast
// address.
func (l *Lowlevel) Prefix() netsim.Prefix { return netsim.Prefix("unicast-" + l.Addr.String()) }

// AddLowlevel deploys a unicast lowlevel nameserver in a region, announcing
// its own prefix into BGP and serving the lowlevel zone store.
func (p *Platform) AddLowlevel(id, region string) *Lowlevel {
	p.llSeq++
	addr := netip.AddrFrom4([4]byte{198, 19, byte(p.llSeq >> 8), byte(p.llSeq)})
	node := p.Topo.AttachStub("lowlevel-"+id, region, 1)
	speaker := p.World.AddSpeaker(node, AkamaiASN)
	for _, nb := range node.Neighbors() {
		p.World.Peer(speaker, p.World.Speaker(nb), nil, nil)
	}
	ll := &Lowlevel{ID: id, Addr: addr, Node: node}
	cfg := nameserver.DefaultConfig("lowlevel-" + id)
	ll.Server = nameserver.NewServer(p.Sched, cfg, nameserver.NewEngine(p.llStore()), nil)
	node.SetHandler(func(now simtime.Time, at *netsim.Node, pkt *netsim.Packet) {
		dp, ok := pkt.Payload.(*pop.DNSPacket)
		if !ok {
			return
		}
		ll.Served++
		ll.Server.Receive(now, &nameserver.Request{
			Resolver: dp.Resolver, ASN: dp.ASN, IPTTL: pkt.TTL, Msg: dp.Msg, Legit: dp.Legit,
			Respond: func(t simtime.Time, resp *dnswire.Message) {
				at.SendReverse(pkt, &pop.DNSResponse{Msg: resp, PoP: "lowlevel", Machine: ll.ID})
			},
		})
	})
	speaker.Originate(ll.Prefix(), 0)
	p.lowlevels = append(p.lowlevels, ll)
	p.unicast[addr] = ll.Prefix()
	// Existing clients learn the new unicast prefix's default route.
	for _, c := range p.clients {
		c.Node.SetRoute(ll.Prefix(), c.Node.Neighbors()[0])
	}
	return ll
}

// Lowlevels returns the deployed lowlevel set.
func (p *Platform) Lowlevels() []*Lowlevel { return p.lowlevels }

// llStore lazily creates the shared lowlevel zone store.
func (p *Platform) llStore() *zone.Store {
	if p.lowStore == nil {
		p.lowStore = zone.NewStore()
	}
	return p.lowStore
}

// SetupTwoTier installs the Two-Tier zones: the toplevel zone (served from
// the anycast clouds like every other zone) holds the NS delegation of
// LowlevelZone to every deployed lowlevel with the production 4000-second
// TTL and glue; the lowlevel zone holds the CDN hostnames at the 20-second
// TTL, tailored by the mapper when bound. Call after deploying lowlevels.
func (p *Platform) SetupTwoTier(hostLabels ...string) ([]dnswire.Name, error) {
	if len(p.lowlevels) == 0 {
		return nil, fmt.Errorf("core: no lowlevels deployed")
	}
	// Toplevel zone with the delegation.
	top := []dnswire.RR{&dnswire.SOA{
		RRHeader: dnswire.RRHeader{Name: TwoTierZone, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 300},
		MName:    dnswire.MustName("a0.ns.akamaidns.test"),
		RName:    dnswire.MustName("hostmaster.akamaidns.test"),
		Serial:   1, Refresh: 3600, Retry: 600, Expire: 604800, Minimum: 30,
	}}
	low := []dnswire.RR{&dnswire.SOA{
		RRHeader: dnswire.RRHeader{Name: LowlevelZone, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 30},
		MName:    dnswire.MustName("a0.ns.akamaidns.test"),
		RName:    dnswire.MustName("hostmaster.akamaidns.test"),
		Serial:   1, Refresh: 3600, Retry: 600, Expire: 604800, Minimum: 30,
	}}
	for _, ll := range p.lowlevels {
		nsName := dnswire.MustName(fmt.Sprintf("ns-%s.%s", ll.ID, LowlevelZone))
		ns := &dnswire.NS{
			RRHeader: dnswire.RRHeader{Name: LowlevelZone, Type: dnswire.TypeNS, Class: dnswire.ClassINET,
				TTL: twotier.ToplevelDelegationTTLSeconds},
			Target: nsName,
		}
		glue := &dnswire.A{
			RRHeader: dnswire.RRHeader{Name: nsName, Type: dnswire.TypeA, Class: dnswire.ClassINET,
				TTL: twotier.ToplevelDelegationTTLSeconds},
			Addr: ll.Addr,
		}
		// Build copies its records: both zones may share these.
		top = append(top, ns, glue)
		low = append(low, ns, glue)
	}
	var hosts []dnswire.Name
	for i, label := range hostLabels {
		host, err := LowlevelZone.Prepend(label)
		if err != nil {
			return nil, err
		}
		low = append(low, &dnswire.A{
			RRHeader: dnswire.RRHeader{Name: host, Type: dnswire.TypeA, Class: dnswire.ClassINET,
				TTL: twotier.CDNHostTTLSeconds},
			Addr: netip.AddrFrom4([4]byte{198, 18, 200, byte(i + 1)}),
		})
		hosts = append(hosts, host)
	}
	topZone, err := zone.Build(TwoTierZone, top)
	if err != nil {
		return nil, err
	}
	lowZone, err := zone.Build(LowlevelZone, low)
	if err != nil {
		return nil, err
	}
	p.Store.Put(topZone)     // anycast toplevels serve the delegation
	p.llStore().Put(lowZone) // unicast lowlevels serve the hostnames
	p.ensureInfraZone()
	p.Bus.Publish(TopicZones, "twotier:"+TwoTierZone.String())
	return hosts, nil
}

// TwoTierHints returns resolver hints pointing the toplevel zone at the 13
// toplevel clouds (the resolver learns the lowlevel delegation from
// referrals).
func (p *Platform) TwoTierHints() []resolver.Hint {
	var hints []resolver.Hint
	for cl := anycast.CloudID(0); cl < anycast.TopLevelClouds; cl++ {
		hints = append(hints, resolver.Hint{
			Zone:   TwoTierZone,
			NSName: dnswire.MustName(cl.NSName()),
			Server: CloudAddr(cl).String(),
		})
	}
	return hints
}
