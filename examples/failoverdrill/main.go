// Failover drill: break the platform the ways §4.2 describes — machine
// failures, whole-PoP loss, and a poisoned metadata input that crashes
// every regular nameserver — and watch the designed mitigations hold
// service: ECMP re-hash, anycast failover, and the input-delayed
// nameservers answering with intentionally stale data.
package main

import (
	"fmt"
	"log"
	"time"

	"akamaidns/internal/anycast"
	"akamaidns/internal/core"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/pop"
	"akamaidns/internal/simtime"
)

const drillZone = `
$TTL 300
@    IN SOA ns1.bank.test. host.bank.test. ( 1 3600 600 604800 30 )
www  IN A 192.0.2.44
`

func main() {
	opts := core.DefaultOptions()
	opts.MachinesPerPoP = 3
	platform, err := core.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	ent, err := platform.AddEnterprise("bank", core.MustName("bank.test"), drillZone)
	if err != nil {
		log.Fatal(err)
	}
	client := platform.AddClient("probe", "na")
	platform.Converge(time.Minute)

	cloud := ent.DelegationSet[0]
	ask := func() (string, string) {
		var popName, machine string
		client.Probe(cloud, core.MustName("www.bank.test"), dnswire.TypeA, 3*time.Second,
			func(_ simtime.Time, resp *pop.DNSResponse) {
				if resp != nil {
					popName, machine = resp.PoP, resp.Machine
				}
			})
		platform.Converge(4 * time.Second)
		if popName == "" {
			return "TIMEOUT", ""
		}
		return popName, machine
	}

	home, machine := ask()
	fmt.Printf("steady state: cloud %d answered by %s (machine %s)\n", cloud, home, machine)

	// Drill 1: that machine's disk dies. The monitoring agent's
	// self-suspension withdraws it; ECMP re-hashes to a sibling.
	var homePoP *core.PlatformMachine
	for _, m := range platform.Machines {
		if m.PoP.Name == home && m.ID == machine {
			homePoP = m
		}
	}
	homePoP.Server.SetSuspended(platform.Sched.Now(), true)
	p2, m2 := ask()
	fmt.Printf("drill 1 (machine failure): answered by %s (machine %s) — same PoP, different machine: %v\n",
		p2, m2, p2 == home && m2 != machine)

	// Drill 2: the whole PoP goes dark. Anycast failover reroutes to
	// another PoP in the same cloud within seconds (§4.1).
	for _, pp := range platform.PoPs {
		if pp.Name == home {
			pp.WithdrawAll(platform.Sched.Now())
		}
	}
	platform.Converge(10 * time.Second)
	p3, _ := ask()
	fmt.Printf("drill 2 (PoP loss): answered by %s — different PoP: %v\n", p3, p3 != home)

	// Drill 3: a poisoned input crashes every REGULAR nameserver in the
	// platform (§4.2.3's nightmare). The input-delayed instances, one hour
	// behind on metadata and exempt from staleness suspension, keep
	// answering.
	for _, m := range platform.Machines {
		if !m.Delayed() {
			m.Server.SetSuspended(platform.Sched.Now(), true)
		}
	}
	platform.Converge(30 * time.Second)
	answeredBy := map[anycast.CloudID]string{}
	for _, c := range ent.DelegationSet.Clouds() {
		cloud = c
		if p, m := ask(); p != "TIMEOUT" {
			answeredBy[c] = p + "/" + m
		}
	}
	fmt.Printf("drill 3 (poisoned input, all regular machines down): %d/%d delegation clouds still answering via input-delayed instances\n",
		len(answeredBy), len(ent.DelegationSet))
	for _, c := range ent.DelegationSet.Clouds() {
		if who, ok := answeredBy[c]; ok {
			fmt.Printf("  cloud %2d -> %s\n", c, who)
		}
	}

	// The input-delayed machines froze their inputs on first use, giving
	// operations time to repair; recovery re-advertises everything.
	frozen := 0
	for _, m := range platform.Machines {
		if m.Delayed() && m.Subscription().Frozen() {
			frozen++
		}
	}
	fmt.Printf("input-delayed machines that froze their inputs upon use: %d\n", frozen)

	for _, m := range platform.Machines {
		if !m.Delayed() {
			m.Server.SetSuspended(platform.Sched.Now(), false)
		}
	}
	for _, pp := range platform.PoPs {
		pp.Reconcile(platform.Sched.Now())
	}
	platform.Converge(30 * time.Second)
	cloud = ent.DelegationSet[0]
	p4, _ := ask()
	fmt.Printf("recovery: answered by %s\n", p4)
}
