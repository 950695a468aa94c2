package core

import (
	"fmt"
	"net/netip"
	"strings"

	"akamaidns/internal/anycast"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/netsim"
	"akamaidns/internal/zone"
)

// This file is the Management Portal surface (§3.2): enterprises onboard
// DNS zones (ADHS), CDN properties, and GTM configurations; the portal
// validates the metadata and publishes it to the nameservers.

// Enterprise is one onboarded customer.
type Enterprise struct {
	Name          string
	DelegationSet anycast.DelegationSet
	Zones         []dnswire.Name
}

// AddEnterprise onboards an enterprise with its first zone, assigning a
// unique 6-cloud delegation set (§4.3.1) and installing the zone with the
// matching NS records and glue.
func (p *Platform) AddEnterprise(name string, origin dnswire.Name, zoneText string) (*Enterprise, error) {
	ds, err := p.Assigner.Assign(name)
	if err != nil {
		return nil, err
	}
	ent := &Enterprise{Name: name, DelegationSet: ds}
	if err := p.AddEnterpriseZone(ent, origin, zoneText); err != nil {
		return nil, err
	}
	return ent, nil
}

// AddEnterpriseZone hosts another zone for an existing enterprise using its
// delegation set.
func (p *Platform) AddEnterpriseZone(ent *Enterprise, origin dnswire.Name, zoneText string) error {
	parsed, err := zone.ParseMaster(strings.NewReader(zoneText), origin)
	if err != nil {
		return fmt.Errorf("core: zone %s rejected by portal validation: %w", origin, err)
	}
	if parsed.SOA() == nil {
		return fmt.Errorf("core: zone %s has no SOA", origin)
	}
	// Serve the delegation-set NS records beside the enterprise's own (the
	// enterprise also adds these at its parent; we serve the child copy).
	recs := parsed.AllRecords()
	for _, c := range ent.DelegationSet {
		recs = append(recs, &dnswire.NS{
			RRHeader: dnswire.RRHeader{Name: origin, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 86400},
			Target:   dnswire.MustName(c.NSName()),
		})
	}
	z, err := zone.Build(origin, recs)
	if err != nil {
		return err
	}
	p.Store.Put(z)
	p.ensureInfraZone()
	ent.Zones = append(ent.Zones, origin)
	p.Bus.Publish(TopicZones, fmt.Sprintf("zone:%s:serial:%d", origin, z.Serial()))
	return nil
}

// InfraZone is the platform's own zone carrying the per-cloud nameserver
// names and their glue addresses.
var InfraZone = dnswire.MustName("ns.akamaidns.test")

// ensureInfraZone installs the a<N>.ns.akamaidns.test glue zone once.
func (p *Platform) ensureInfraZone() {
	if p.Store.Get(InfraZone) != nil {
		return
	}
	recs := []dnswire.RR{&dnswire.SOA{
		RRHeader: dnswire.RRHeader{Name: InfraZone, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 86400},
		MName:    dnswire.MustName("a0.ns.akamaidns.test"),
		RName:    dnswire.MustName("hostmaster.akamaidns.test"),
		Serial:   1, Refresh: 3600, Retry: 600, Expire: 604800, Minimum: 300,
	}}
	for c := anycast.CloudID(0); c < anycast.NumClouds; c++ {
		recs = append(recs, &dnswire.A{
			RRHeader: dnswire.RRHeader{Name: dnswire.MustName(c.NSName()), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 86400},
			Addr:     CloudAddr(c),
		})
	}
	p.Store.Put(mustBuild(InfraZone, recs))
}

// mustBuild builds one of the platform's own zones, whose records are in zone
// by construction: an error is a bug.
func mustBuild(origin dnswire.Name, recs []dnswire.RR) *zone.Zone {
	z, err := zone.Build(origin, recs)
	if err != nil {
		panic(err)
	}
	return z
}

// CDNProperty configures a CDN-accelerated hostname: the enterprise CNAMEs
// its hostname to an entry-point name which the mapper resolves to proximal
// edge servers (the "www.ex.com -> ex.edgesuite.net -> a1.w10.akamai.net"
// chain of §3.1 collapsed to its behavioural essence).
type CDNProperty struct {
	// Hostname is the customer-facing name ("www.ex.com.").
	Hostname dnswire.Name
	// EntryPoint is the CDN name the hostname aliases to.
	EntryPoint dnswire.Name
	// Edges are the serving edge IDs registered with the mapper.
	Edges []string
}

// CDNZone hosts the CDN entry-point names; it is delegated to 13 clouds in
// production ("edgesuite.net"-style cross-enterprise role).
var CDNZone = dnswire.MustName("edge.akamaidns.test")

// SetupCDN installs the CDN zone and wires the mapper as the tailorer of
// every machine's engine. Call once before AddCDNProperty.
func (p *Platform) SetupCDN() {
	if p.Store.Get(CDNZone) == nil {
		p.Store.Put(mustBuild(CDNZone, []dnswire.RR{&dnswire.SOA{
			RRHeader: dnswire.RRHeader{Name: CDNZone, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 300},
			MName:    dnswire.MustName("a0.ns.akamaidns.test"),
			RName:    dnswire.MustName("hostmaster.akamaidns.test"),
			Serial:   1, Refresh: 3600, Retry: 600, Expire: 604800, Minimum: 30,
		}}))
		p.ensureInfraZone()
	}
	for _, m := range p.Machines {
		m.Server.Engine.Tailor = p.Mapper
	}
}

// AddEdge registers a CDN/GTM edge server at a location, assigning it a
// unique synthetic address in 198.18.128.0/17.
func (p *Platform) AddEdge(id string, loc netsim.GeoPoint, capacity float64) netip.Addr {
	p.edgeSeq++
	addr := netip.AddrFrom4([4]byte{198, 18, 128 + byte(p.edgeSeq>>8), byte(p.edgeSeq)})
	p.Mapper.AddEdge(id, addr, loc, capacity)
	return addr
}

// AddCDNProperty binds an entry-point hostname under CDNZone to edges and
// returns the property. The entry point answers with mapper-tailored A
// records at the production 20-second TTL.
func (p *Platform) AddCDNProperty(label string, edges ...string) (*CDNProperty, error) {
	entry, err := CDNZone.Prepend(label)
	if err != nil {
		return nil, err
	}
	z := p.Store.Get(CDNZone)
	if z == nil {
		return nil, fmt.Errorf("core: SetupCDN not called")
	}
	// A static fallback record exists so the zone lookup succeeds; the
	// mapper replaces the address per client. The zone's next version keeps
	// its serial: the record is platform plumbing, not a zone change to
	// propagate.
	next, err := zone.Apply(z, zone.Delta{
		FromSerial: z.Serial(),
		ToSerial:   z.Serial(),
		Added: []dnswire.RR{&dnswire.A{
			RRHeader: dnswire.RRHeader{Name: entry, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 20},
			Addr:     CloudAddr(0),
		}},
	})
	if err != nil {
		return nil, err
	}
	p.Store.Put(next)
	if err := p.Mapper.BindProperty(entry, edges...); err != nil {
		return nil, err
	}
	p.Bus.Publish(TopicZones, "cdn-property:"+entry.String())
	return &CDNProperty{Hostname: entry, EntryPoint: entry, Edges: edges}, nil
}
