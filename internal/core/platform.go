// Package core is the public API of the Akamai DNS reproduction: a
// Platform assembles the full system — the simulated Internet (netsim +
// bgp), the 24 anycast clouds placed over PoPs, PoPs of nameserver machines
// with monitoring agents and scoring filters, the metadata
// publish/subscribe fabric, Mapping Intelligence, and the Management
// Portal's enterprise zone hosting — and exposes clients that query it and
// scenario hooks that break it.
package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"akamaidns/internal/anycast"
	"akamaidns/internal/bgp"
	"akamaidns/internal/filters"
	"akamaidns/internal/mapping"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/pop"
	"akamaidns/internal/propagate"
	"akamaidns/internal/pubsub"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"

	"akamaidns/internal/dnswire"
)

// AkamaiASN is the shared origin AS of all PoP routers.
const AkamaiASN bgp.ASN = 20940

// TopicZones is the pubsub topic zone data rides on (the CDN-delivered
// metadata path of §3.2; mapping updates use mapping.TopicMapping).
const TopicZones = pubsub.Topic("zones")

// Options configures a Platform.
type Options struct {
	// Seed drives all randomness; equal seeds give identical platforms.
	Seed int64
	// NumPoPs is the PoP count (≥ 12 to place 24 clouds at 2/PoP).
	NumPoPs int
	// MachinesPerPoP is the regular machine count per PoP.
	MachinesPerPoP int
	// InputDelayed adds one input-delayed machine at one PoP per cloud
	// (§4.2.3).
	InputDelayed bool
	// StartAgents runs the monitoring agents' periodic sweeps. Off for
	// large wide-area experiments where sweep events would dominate.
	StartAgents bool
	// EnableFilters attaches the scoring pipeline to each machine.
	EnableFilters bool
	// QoDFirewallFraction of machines get the §4.2.4 firewall (production
	// deploys it on a subset).
	QoDFirewallFraction float64
	// SuspensionCap bounds concurrent suspensions via the coordinator.
	SuspensionCap int
	// ServerConfig, when non-nil, overrides per-machine nameserver config.
	ServerConfig func(id string) nameserver.Config
	// PullPropagation gives every regular machine its own zone store fed
	// by a propagate.Puller over a per-machine fault-capable link,
	// instead of sharing the controller's store pointer. Zone freshness
	// then comes only from confirmed sync cycles, and the chaos harness
	// can break individual propagation paths. Input-delayed machines
	// keep the shared store (their discipline is about inputs, §4.2.3).
	PullPropagation bool
}

// metadataDelay is the base pubsub delivery latency ("updates propagate in
// less than 1 second", §4.2.2).
const metadataDelay = 500 * time.Millisecond

// InputDelay is the artificial delay of input-delayed machines (§4.2.3).
const InputDelay = time.Hour

// DefaultOptions is a laptop-scale platform faithful in structure.
func DefaultOptions() Options {
	return Options{
		Seed:                1,
		NumPoPs:             24,
		MachinesPerPoP:      2,
		InputDelayed:        true,
		StartAgents:         false,
		EnableFilters:       true,
		QoDFirewallFraction: 0.5,
		SuspensionCap:       1000,
	}
}

// MachineFilters bundles one machine's filter instances (loyalty and
// hop-count learning are per-nameserver by design, §4.3.4).
type MachineFilters struct {
	Rate      *filters.RateLimit
	Allowlist *filters.Allowlist // shared across machines (common history)
	NXDomain  *filters.NXDomain
	HopCount  *filters.HopCount
	Loyalty   *filters.Loyalty
}

// PlatformMachine pairs a pop.Machine with its filters and PoP.
type PlatformMachine struct {
	*pop.Machine
	PoP     *pop.PoP
	Filters *MachineFilters
	// LocalStore is the store this machine serves from: its own under
	// PullPropagation, the shared controller store otherwise.
	LocalStore *zone.Store
	// Puller and PullLink are set under PullPropagation: the machine's
	// pull loop and its fault-injectable link to the controller.
	Puller   *propagate.Puller
	PullLink *propagate.Link
	// sub is the machine's metadata subscription (frozen on first use for
	// input-delayed machines).
	sub *pubsub.Subscription
}

// Subscription exposes the machine's metadata subscription for failure
// injection (SetLost) in scenarios.
func (m *PlatformMachine) Subscription() *pubsub.Subscription { return m.sub }

// Platform is the assembled system.
type Platform struct {
	Opts      Options
	Sched     *simtime.Scheduler
	Net       *netsim.Network
	Topo      *netsim.Topology
	World     *bgp.World
	Bus       *pubsub.Bus
	Store     *zone.Store
	Mapper    *mapping.Mapper
	Assigner  *anycast.Assigner
	Placement *anycast.Placement
	Coord     *monitor.Coordinator
	Allowlist *filters.Allowlist
	// History and Source are set under PullPropagation: the controller's
	// bounded version history and the pull-protocol server over it.
	History   *zone.History
	Source    *propagate.Source
	PoPs      []*pop.PoP
	Machines  []*PlatformMachine
	rng       *rand.Rand
	clientSeq int
	edgeSeq   int
	nextASN   bgp.ASN
}

// New assembles a platform.
func New(opts Options) (*Platform, error) {
	if opts.NumPoPs*anycast.MaxCloudsPerPoP < anycast.NumClouds {
		return nil, fmt.Errorf("core: %d PoPs cannot host %d clouds", opts.NumPoPs, anycast.NumClouds)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sched := simtime.NewScheduler()
	net := netsim.New(sched)
	topo := netsim.GenTopology(net, netsim.DefaultRegions(), rng)
	world := bgp.NewWorld(net, bgp.DefaultConfig(), rng)
	// BGP on the transit core.
	for i, nd := range topo.Core {
		world.AddSpeaker(nd, bgp.ASN(1000+i))
	}
	for _, nd := range topo.Core {
		for _, nb := range nd.Neighbors() {
			if nb > nd.ID {
				world.Peer(world.Speaker(nd.ID), world.Speaker(nb), nil, nil)
			}
		}
	}
	placement, err := anycast.Place(opts.NumPoPs, rng)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		Opts: opts, Sched: sched, Net: net, Topo: topo, World: world,
		Bus:       pubsub.NewBus(sched),
		Store:     zone.NewStore(),
		Assigner:  anycast.NewAssigner(rng),
		Placement: placement,
		Coord:     monitor.NewCoordinator(5, opts.SuspensionCap),
		Allowlist: filters.NewAllowlist(),
		rng:       rng,
		nextASN:   60000,
	}
	p.Mapper = mapping.New(p.Bus)
	if opts.PullPropagation {
		p.History = zone.NewHistory(8)
		p.Source = propagate.NewSource(p.Store, p.History)
	}

	// PoPs: router stubs multi-homed into the core, speakers in AS 20940.
	delayedHosted := map[anycast.CloudID]bool{}
	for i := 0; i < opts.NumPoPs; i++ {
		name := fmt.Sprintf("pop%03d", i)
		node := topo.AttachStub(name, "", 1+rng.Intn(2))
		speaker := world.AddSpeaker(node, AkamaiASN)
		for _, nb := range node.Neighbors() {
			world.Peer(speaker, world.Speaker(nb), nil, nil)
		}
		clouds := placement.PoPClouds[i]
		pp := pop.New(name, node, speaker, clouds)
		p.PoPs = append(p.PoPs, pp)
		for m := 0; m < opts.MachinesPerPoP; m++ {
			p.addMachine(pp, fmt.Sprintf("%s-m%d", name, m), false)
		}
		if opts.InputDelayed {
			// One input-delayed machine at the first PoP hosting each cloud.
			for _, c := range clouds {
				if !delayedHosted[c] {
					delayedHosted[c] = true
					p.addMachine(pp, fmt.Sprintf("%s-delayed", name), true)
					break
				}
			}
		}
	}
	return p, nil
}

// addMachine builds, wires, and registers one machine.
func (p *Platform) addMachine(pp *pop.PoP, id string, delayed bool) {
	var cfg nameserver.Config
	if p.Opts.ServerConfig != nil {
		cfg = p.Opts.ServerConfig(id)
	} else {
		cfg = nameserver.DefaultConfig(id)
	}
	if p.Opts.QoDFirewallFraction > 0 && p.rng.Float64() < p.Opts.QoDFirewallFraction {
		cfg.QoDFirewall = true
	}
	// Under PullPropagation a regular machine serves from its own store,
	// kept current by a pull loop; everything else shares the
	// controller's store pointer.
	store := p.Store
	pulls := p.Opts.PullPropagation && !delayed
	if pulls {
		store = zone.NewStore()
	}
	mf := &MachineFilters{Allowlist: p.Allowlist}
	var pipe *filters.Pipeline
	if p.Opts.EnableFilters {
		mf.Rate = filters.NewRateLimit()
		mf.NXDomain = filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
		mf.HopCount = filters.NewHopCount()
		mf.Loyalty = filters.NewLoyalty()
		pipe = filters.NewPipeline(mf.Rate, mf.Allowlist, mf.NXDomain, mf.HopCount, mf.Loyalty)
	}
	spec := pop.MachineSpec{ID: id, Server: cfg, Delayed: delayed, Pipeline: pipe}
	m := pop.BuildMachine(p.Sched, spec, store, p.Coord)
	if !p.Opts.StartAgents {
		m.Agent.Stop()
	}
	pm := &PlatformMachine{Machine: m, PoP: pp, Filters: mf, LocalStore: store}
	if pulls {
		clock := propagate.SimClock{Sched: p.Sched}
		pm.PullLink = propagate.NewLink(clock, p.Source, p.rng.Int63())
		pm.Puller = propagate.New(propagate.Config{
			ID: id, Clock: clock, Transport: pm.PullLink, Store: store,
			Seed: p.rng.Int63(),
			// The only zone-freshness signal is a confirmed sync: a
			// machine whose pull path is broken goes stale (and then
			// self-suspends) even if the notify bus still reaches it.
			OnSync: func(now simtime.Time) { m.Server.RecordInput(TopicZones, now) },
			Obs:    m.Server.Obs(),
		})
		pm.Puller.Start()
	}
	// Metadata subscriptions: zones + mapping.
	record := func(now simtime.Time, msg pubsub.Message) {
		m.Server.RecordInput(msg.Topic, now)
	}
	zoneHandler := record
	if pulls {
		// Zone messages are only a nudge to poll; freshness comes from
		// the pull loop itself.
		zoneHandler = func(now simtime.Time, msg pubsub.Message) { pm.Puller.Poke() }
	}
	if delayed {
		pm.sub = p.Bus.SubscribeInputDelayed(TopicZones, metadataDelay, InputDelay, zoneHandler)
		sub2 := p.Bus.SubscribeInputDelayed(mapping.TopicMapping, metadataDelay, InputDelay, record)
		m.SetOnFirstUse(func(now simtime.Time) {
			// §4.2.3: upon use, input-delayed nameservers stop receiving
			// any new inputs.
			pm.sub.Freeze()
			sub2.Freeze()
		})
	} else {
		pm.sub = p.Bus.Subscribe(TopicZones, metadataDelay, zoneHandler)
		p.Bus.Subscribe(mapping.TopicMapping, metadataDelay, record)
	}
	pp.AddMachine(m)
	p.Machines = append(p.Machines, pm)
}

// Converge runs the virtual clock forward to let BGP settle.
func (p *Platform) Converge(d time.Duration) { p.Sched.RunFor(d) }

// CloudAddr is the synthetic service address of a cloud, used in NS glue
// records; clients map it back to the anycast prefix.
func CloudAddr(c anycast.CloudID) netip.Addr {
	return netip.AddrFrom4([4]byte{198, 18, 0, byte(c)})
}

// AddrCloud inverts CloudAddr.
func AddrCloud(a netip.Addr) (anycast.CloudID, bool) {
	b := a.As4()
	if b[0] != 198 || b[1] != 18 || b[2] != 0 || int(b[3]) >= anycast.NumClouds {
		return 0, false
	}
	return anycast.CloudID(b[3]), true
}

// PoPForCloud returns the PoPs currently advertising a cloud.
func (p *Platform) PoPForCloud(c anycast.CloudID) []*pop.PoP {
	var out []*pop.PoP
	for _, pp := range p.PoPs {
		for _, cc := range pp.Clouds {
			if cc == c {
				out = append(out, pp)
			}
		}
	}
	return out
}

// TotalAnswered sums answered queries across all machines.
func (p *Platform) TotalAnswered() (answered, answeredLegit, received uint64) {
	for _, m := range p.Machines {
		s := m.Server.Snapshot()
		answered += s.Answered
		answeredLegit += s.AnsweredLegit
		received += s.Received
	}
	return
}

// MustName is re-exported for example brevity.
func MustName(s string) dnswire.Name { return dnswire.MustName(s) }
