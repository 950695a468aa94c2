package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"akamaidns/internal/attack"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
)

// TestRandomSubdomainAttackThroughPlatform drives the §4.3.4 class-3 attack
// end-to-end: attack traffic rides through anycast routing and the PoP's
// ECMP into machines whose NXDOMAIN filters learn the hot zone; legitimate
// traffic keeps being answered while attack queries are deprioritized.
func TestRandomSubdomainAttackThroughPlatform(t *testing.T) {
	p := newPlatform(t, func(o *Options) {
		o.MachinesPerPoP = 1
		// Small compute so the attack actually contends.
		o.ServerConfig = func(id string) nameserver.Config {
			cfg := nameserver.DefaultConfig(id)
			cfg.ComputeQPS = 500
			return cfg
		}
	})
	ent, err := p.AddEnterprise("victim", MustName("victim.test"), entZone)
	if err != nil {
		t.Fatal(err)
	}
	// Lower NXDOMAIN thresholds so the laptop-scale attack trips them.
	for _, m := range p.Machines {
		if m.Filters.NXDomain != nil {
			m.Filters.NXDomain.Threshold = 30
		}
	}
	legit := p.AddClient("legit", "eu")
	attacker := p.AddClient("attacker", "na")
	p.Converge(2 * time.Second)
	cloud := ent.DelegationSet[0]

	// Warm the filters: the legitimate resolver becomes known.
	answered := 0
	for i := 0; i < 20; i++ {
		legit.Probe(cloud, MustName("www.victim.test"), dnswire.TypeA, 2*time.Second,
			func(_ simtime.Time, r *pop.DNSResponse) {
				if r != nil {
					answered++
				}
			})
		p.Converge(3 * time.Second)
	}
	if answered != 20 {
		t.Fatalf("warmup answered %d/20", answered)
	}

	// The attack: 50x the legitimate rate of random subdomains, spoofed to
	// arrive from many bots, sustained for 20 virtual seconds, interleaved
	// with legitimate queries.
	gen := attack.NewGenerator(attack.RandomSubdomain, MustName("victim.test"), 256, nil,
		rand.New(rand.NewSource(1)))
	legitAnswered, legitSent := 0, 0
	stopAt := p.Sched.Now().Add(20 * time.Second)
	var tickAttack func(now simtime.Time)
	tickAttack = func(now simtime.Time) {
		if now > stopAt {
			return
		}
		for i := 0; i < 5; i++ {
			ev := gen.Next()
			attacker.InjectRaw(cloud, ev.Resolver, uint16(4000+i), ev.Msg, false, 0)
		}
		p.Sched.After(10*time.Millisecond, tickAttack) // 500 qps attack
	}
	var tickLegit func(now simtime.Time)
	tickLegit = func(now simtime.Time) {
		if now > stopAt {
			return
		}
		legitSent++
		legit.Probe(cloud, MustName("www.victim.test"), dnswire.TypeA, 900*time.Millisecond,
			func(_ simtime.Time, r *pop.DNSResponse) {
				if r != nil {
					legitAnswered++
				}
			})
		p.Sched.After(100*time.Millisecond, tickLegit) // 10 qps legit
	}
	tickAttack(p.Sched.Now())
	tickLegit(p.Sched.Now())
	p.Converge(30 * time.Second)

	if legitSent == 0 {
		t.Fatal("no legitimate traffic generated")
	}
	frac := float64(legitAnswered) / float64(legitSent)
	if frac < 0.9 {
		t.Fatalf("only %.0f%% of legitimate queries answered under attack", frac*100)
	}
	// At least one machine's NXDOMAIN filter went hot and flagged traffic.
	hot, flagged := 0, uint64(0)
	for _, m := range p.Machines {
		if m.Filters.NXDomain == nil {
			continue
		}
		hot += len(m.Filters.NXDomain.HotZones())
		flagged += m.Filters.NXDomain.Flagged.Load()
	}
	if hot == 0 || flagged == 0 {
		t.Fatalf("NXDOMAIN filter never engaged (hot=%d flagged=%d)", hot, flagged)
	}
}

// TestStalenessEndToEnd walks §4.2.2's partial-connectivity failure through
// the platform: a machine loses its metadata feed, its monitoring agent's
// staleness check self-suspends it, and after the feed recovers and fresh
// input arrives the agent restores it.
func TestStalenessEndToEnd(t *testing.T) {
	p := newPlatform(t, func(o *Options) {
		o.StartAgents = true
		o.MachinesPerPoP = 2
		o.ServerConfig = func(id string) nameserver.Config {
			cfg := nameserver.DefaultConfig(id)
			cfg.StaleAfter = 20 * time.Second
			return cfg
		}
	})
	if _, err := p.AddEnterprise("ex", MustName("ex.test"), entZone); err != nil {
		t.Fatal(err)
	}
	// A steady mapping-metadata heartbeat.
	hb := p.Sched.Every(5*time.Second, func(simtime.Time) {
		p.Bus.Publish(TopicZones, "heartbeat")
	})
	defer hb.Stop()
	p.Converge(30 * time.Second)

	victim := p.Machines[0]
	if victim.Server.Suspended() {
		t.Fatal("machine suspended before failure injection")
	}
	// Sever the metadata feed (transit-link failure that spares the DNS
	// path, §4.2.2).
	victim.Subscription().SetLost(true)
	p.Converge(90 * time.Second)
	if !victim.Server.Suspended() {
		t.Fatal("stale machine did not self-suspend")
	}
	// Siblings with healthy feeds stayed up.
	for _, m := range p.Machines[1:] {
		if m.Delayed() {
			continue
		}
		if m.Server.Suspended() {
			t.Fatalf("healthy machine %s suspended", m.ID)
		}
	}
	// Restore connectivity; the next heartbeat refreshes the input and the
	// agent lifts the suspension after its recovery threshold.
	victim.Subscription().SetLost(false)
	p.Converge(2 * time.Minute)
	if victim.Server.Suspended() {
		t.Fatal("machine not restored after feed recovery")
	}
}

// TestSpoofedTTLAttackThroughPlatform exercises the class-4/5 distinction
// end-to-end: spoofing a known resolver's address from the wrong location
// is caught by the hop-count filter; matching the TTL too is only caught at
// PoPs whose loyalty filter never saw the victim.
func TestSpoofedTTLAttackThroughPlatform(t *testing.T) {
	p := newPlatform(t, nil)
	ent, err := p.AddEnterprise("ex", MustName("ex.test"), entZone)
	if err != nil {
		t.Fatal(err)
	}
	legit := p.AddClient("known-resolver", "eu")
	attacker := p.AddClient("spoofer", "as")
	p.Converge(2 * time.Second)
	cloud := ent.DelegationSet[1]

	// Warm the loyalty filters with real victim traffic, then find the
	// victim's home machine.
	var homeMachine *PlatformMachine
	for i := 0; i < 10; i++ {
		legit.Probe(cloud, MustName("www.ex.test"), dnswire.TypeA, 2*time.Second, func(simtime.Time, *pop.DNSResponse) {})
		p.Converge(3 * time.Second)
	}
	for _, m := range p.Machines {
		if m.Server.Snapshot().Answered > 0 && m.Filters.Loyalty != nil &&
			m.Filters.Loyalty.Known(legit.Addr, p.Sched.Now()) {
			homeMachine = m
		}
	}
	if homeMachine == nil {
		t.Fatal("victim's home machine not found")
	}
	for _, m := range p.Machines {
		if m.Filters.HopCount != nil {
			m.Filters.HopCount.SetActive(true)
		}
		if m.Filters.Loyalty != nil {
			m.Filters.Loyalty.SetActive(true)
		}
	}
	// Teach every machine the victim's expected arrival TTL: 64 minus the
	// forwarding path length, derived by walking FIBs from the client
	// (production learns this from historical traffic).
	hops := 0
	cur := legit.Node.ID
	for i := 0; i < 64; i++ {
		nd := p.Net.Node(cur)
		via, ok := nd.Route(cloud.Prefix())
		if !ok || via == cur {
			break
		}
		cur = via
		hops++
	}
	learned := 64 - hops
	for _, m := range p.Machines {
		if m.Filters.HopCount != nil {
			m.Filters.HopCount.Learn(legit.Addr, learned)
		}
	}

	// Class 4: spoofed address, unspoofed TTL (attacker's own hop count).
	q4 := dnswire.NewQuery(900, MustName("www.ex.test"), dnswire.TypeA)
	attacker.InjectRaw(cloud, legit.Addr, 9000, q4, false, 0)
	p.Converge(5 * time.Second)
	hopFlagged := uint64(0)
	for _, m := range p.Machines {
		if m.Filters.HopCount != nil {
			hopFlagged += m.Filters.HopCount.Flagged.Load()
		}
	}
	// Class 5: spoofed address AND TTL.
	q5 := dnswire.NewQuery(901, MustName("www.ex.test"), dnswire.TypeA)
	attacker.InjectRaw(cloud, legit.Addr, 9001, q5, false, learned)
	p.Converge(5 * time.Second)
	loyaltyFlagged := uint64(0)
	for _, m := range p.Machines {
		if m.Filters.Loyalty != nil {
			loyaltyFlagged += m.Filters.Loyalty.Flagged.Load()
		}
	}
	// The class-4 packet must have tripped hopcount somewhere, unless the
	// attacker happens to be the same distance from the serving PoP; the
	// class-5 packet must trip loyalty iff it landed at a foreign PoP.
	if hopFlagged == 0 && loyaltyFlagged == 0 {
		t.Skipf("attacker landed at the victim's PoP at equal distance (valid per §4.3.4); hop=%d loyal=%d",
			hopFlagged, loyaltyFlagged)
	}
}

// TestPlatformServesManyEnterprises is a breadth test: dozens of
// enterprises, each resolvable through its own delegation set.
func TestPlatformServesManyEnterprises(t *testing.T) {
	p := newPlatform(t, nil)
	const n = 20
	ents := make([]*Enterprise, n)
	for i := 0; i < n; i++ {
		zoneText := fmt.Sprintf(`
$TTL 300
@   IN SOA ns1.e%d.test. host.e%d.test. ( 1 3600 600 604800 30 )
www IN A 192.0.2.%d
`, i, i, i+1)
		ent, err := p.AddEnterprise(fmt.Sprintf("e%d", i), MustName(fmt.Sprintf("e%d.test", i)), zoneText)
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = ent
	}
	c := p.AddClient("r", "na")
	p.Converge(2 * time.Second)
	for i, ent := range ents {
		var got *pop.DNSResponse
		c.Probe(ent.DelegationSet[i%6], MustName(fmt.Sprintf("www.e%d.test", i)), dnswire.TypeA, 3*time.Second,
			func(_ simtime.Time, r *pop.DNSResponse) { got = r })
		p.Converge(4 * time.Second)
		if got == nil || len(got.Msg.Answers) != 1 {
			t.Fatalf("enterprise %d unresolvable", i)
		}
	}
}
