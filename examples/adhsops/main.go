// ADHS operations over real sockets: a primary authoritative server, a
// secondary replicating it via SOA refresh + AXFR, NOTIFY-driven update
// propagation with incremental IXFR deltas (RFC 1995/1996/5936), and DNS
// Cookies (RFC 7873) proving client addresses — the standards-track
// operational surface of the paper's authoritative DNS hosting service.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/zone"
)

const hostedZone = `
$ORIGIN shop.test.
$TTL 300
@    IN SOA ns1 hostmaster ( 2026070501 3600 600 604800 30 )
@    IN NS ns1
@    IN NS ns2
ns1  IN A 198.51.100.1
ns2  IN A 198.51.100.2
www  IN A 192.0.2.10
`

func main() {
	origin := dnswire.MustName("shop.test")

	// Primary.
	priStore := zone.NewStore()
	priStore.Put(zone.MustParseMaster(hostedZone, origin))
	primary := netserve.New(netserve.DefaultConfig(), nameserver.NewEngine(priStore), nil)
	primary.History = zone.NewHistory(8)
	primary.History.Record(priStore.Get(origin))
	if err := primary.Start(); err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	fmt.Printf("primary:   udp/tcp %s serving %s (serial %d)\n",
		primary.TCPAddrActual(), origin, priStore.Get(origin).Serial())

	// Secondary with cookies enforced on UDP.
	secStore := zone.NewStore()
	sec := netserve.NewSecondary(secStore, origin, primary.TCPAddrActual())
	secCfg := netserve.DefaultConfig()
	secCfg.Cookies = true
	secCfg.CookieSecret = 0xA11CE
	secondary := netserve.New(secCfg, nameserver.NewEngine(secStore), nil)
	secondary.OnNotify = func(o dnswire.Name) {
		if o == origin {
			sec.Notify()
		}
	}
	if err := secondary.Start(); err != nil {
		log.Fatal(err)
	}
	defer secondary.Close()
	sec.RefreshOnce()
	sec.Start()
	defer sec.Stop()
	fmt.Printf("secondary: udp/tcp %s replicated serial %d via AXFR\n",
		secondary.TCPAddrActual(), sec.Serial())

	// Query the secondary with a DNS Cookie.
	q := dnswire.NewQuery(1, dnswire.MustName("www.shop.test"), dnswire.TypeA)
	opt := dnswire.NewOPT(1232)
	opt.SetCookie(dnswire.Cookie{Client: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}})
	q.Additional = append(q.Additional, opt)
	resp, err := netserve.Exchange(secondary.UDPAddrActual(), q, false, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	ck, _ := dnswire.CookieFromMessage(resp)
	fmt.Printf("query via secondary: %s -> %s (server cookie %x... issued)\n",
		"www.shop.test A", resp.Answers[0].(*dnswire.A).Addr, ck.Server[:4])

	// The enterprise updates its zone on the primary. A served version never
	// changes: the portal builds the next one from a delta, swaps it in,
	// records it for IXFR and NOTIFYs the secondary, which fetches the same
	// delta immediately.
	cur := priStore.Get(origin)
	delta := zone.Delta{
		FromSerial: cur.Serial(),
		ToSerial:   2026070502,
		Added: []dnswire.RR{&dnswire.A{
			RRHeader: dnswire.RRHeader{Name: dnswire.MustName("api.shop.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
			Addr:     netip.MustParseAddr("192.0.2.11"),
		}},
	}
	next, err := zone.Apply(cur, delta)
	if err != nil {
		log.Fatal(err)
	}
	priStore.Put(next)
	primary.History.Record(next)
	fmt.Printf("primary:   IXFR delta %d -> %d: -%d +%d records\n",
		delta.FromSerial, delta.ToSerial, len(delta.Deleted), len(delta.Added))
	for _, rr := range delta.Added {
		fmt.Printf("             + %s\n", rr)
	}
	if err := netserve.SendNotify(secondary.UDPAddrActual(), origin, 2*time.Second); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sec.Serial() != 2026070502 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	st := sec.Stats()
	fmt.Printf("after NOTIFY: secondary serial %d (transfers: %d, of which incremental IXFR: %d)\n",
		sec.Serial(), st.Transfers, st.Incrementals)

	q2 := dnswire.NewQuery(2, dnswire.MustName("api.shop.test"), dnswire.TypeA)
	resp2, err := netserve.Exchange(secondary.UDPAddrActual(), q2, false, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new record on secondary: api.shop.test -> %s\n",
		resp2.Answers[0].(*dnswire.A).Addr)
}
