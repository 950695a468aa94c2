package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"akamaidns/internal/anycast"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
	"akamaidns/internal/workload"
)

// TestWorkloadSoak drives the §2-calibrated synthetic workload through the
// live platform: skewed resolvers in weighted regions querying skewed
// zones (with the ~0.5% NXDOMAIN background), across all 24 clouds. It
// asserts the platform serves essentially everything and the answered
// traffic keeps the generator's shape.
func TestWorkloadSoak(t *testing.T) {
	p := newPlatform(t, func(o *Options) { o.NumPoPs = 24; o.MachinesPerPoP = 1 })
	// Host 30 enterprise zones.
	const nZones = 30
	ents := make([]*Enterprise, nZones)
	for i := range ents {
		text := fmt.Sprintf("$TTL 300\n@ IN SOA ns1.z%02d.test. h.z%02d.test. ( 1 3600 600 604800 30 )\nwww IN A 192.0.2.%d\n", i, i, i+1)
		ent, err := p.AddEnterprise(fmt.Sprintf("z%02d", i), MustName(fmt.Sprintf("z%02d.test", i)), text)
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = ent
	}
	// A calibrated population scaled to the soak: 40 client sites stand in
	// for the resolver population, weighted by the generator's skew.
	rng := rand.New(rand.NewSource(99))
	popn := workload.NewPopulation(workload.Config{
		NumResolvers: 400, NumASNs: 50, NumZones: nZones, TotalQPS: 100,
	}, rng)
	clients := make([]*Client, 40)
	for i := range clients {
		clients[i] = p.AddClient(fmt.Sprintf("soak-%02d", i), popn.Resolvers[i*10].Region)
	}
	p.Converge(2 * time.Second)

	answered, sent := 0, 0
	zoneHits := map[int]int{}
	const queries = 1500
	for i := 0; i < queries; i++ {
		ev := popn.SampleQuery()
		client := clients[ev.ResolverIdx%len(clients)]
		ent := ents[ev.ZoneIdx%nZones]
		var qname dnswire.Name
		if ev.NXDomain {
			qname = MustName(fmt.Sprintf("nx%06d.z%02d.test", i, ev.ZoneIdx%nZones))
		} else {
			qname = MustName(fmt.Sprintf("www.z%02d.test", ev.ZoneIdx%nZones))
		}
		cloud := ent.DelegationSet[i%anycast.DelegationSetSize]
		sent++
		zi := ev.ZoneIdx % nZones
		client.Probe(cloud, qname, dnswire.TypeA, time.Second,
			func(_ simtime.Time, r *pop.DNSResponse) {
				if r != nil {
					answered++
					zoneHits[zi]++
				}
			})
		p.Converge(100 * time.Millisecond)
	}
	p.Converge(time.Minute)

	if frac := float64(answered) / float64(sent); frac < 0.999 {
		t.Fatalf("soak answered %.4f of %d queries", frac, sent)
	}
	// The zone skew survives the platform: the busiest zone should carry a
	// large multiple of the median zone's answered queries.
	if len(zoneHits) < nZones/2 {
		t.Fatalf("only %d zones answered", len(zoneHits))
	}
	hits := make([]int, 0, len(zoneHits))
	for _, n := range zoneHits {
		hits = append(hits, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(hits)))
	if top, med := hits[0], hits[len(hits)/2]; top < 3*med {
		t.Fatalf("zone skew lost in transit: top=%d median=%d", top, med)
	}
	// The platform-wide NXDOMAIN background matches the generator's
	// ~0.5% (counted against answered queries).
	if nxFrac := float64(nxTotal(p)) / float64(answered); nxFrac > 0.03 {
		t.Fatalf("NXDOMAIN background %.4f, want ~0.005", nxFrac)
	}
}

func nxTotal(p *Platform) uint64 {
	var n uint64
	for _, m := range p.Machines {
		n += m.Server.Snapshot().NXDomain
	}
	return n
}
