package netserve

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/zone"
)

const learnZone = `
$ORIGIN learn.test.
$TTL 300
@       IN SOA ns1 host ( 1 3600 600 604800 30 )
@       IN NS ns1
ns1     IN A 198.51.100.1
www     IN A 192.0.2.1
sub     IN NS ns1.sub
ns1.sub IN A 192.0.2.53
*.wild  IN A 192.0.2.7
`

// learnServer is a socket server built the way `authdns -filters` builds it:
// nothing pre-seeded, no filter wired to the server by hand. ask sends one A
// query and checks the rcode; hits reads the NXDOMAIN filter's hit counter.
type learnServer struct {
	t     *testing.T
	srv   *Server
	store *zone.Store
	nx    *filters.NXDomain
	id    uint16
}

var learnOrigin = dnswire.MustName("learn.test")

func startLearnServer(t *testing.T) *learnServer {
	t.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(learnZone, learnOrigin))
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	nx.Threshold = 10
	srv := New(DefaultConfig(), nameserver.NewEngine(store), filters.NewPipeline(filters.NewRateLimit(), nx))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &learnServer{t: t, srv: srv, store: store, nx: nx}
}

func (l *learnServer) ask(name string, tcp bool, want dnswire.RCode) {
	l.t.Helper()
	l.id++
	addr := l.srv.UDPAddrActual()
	if tcp {
		addr = l.srv.TCPAddrActual()
	}
	resp, err := Exchange(addr, dnswire.NewQuery(l.id, dnswire.MustName(name), dnswire.TypeA), tcp, 2*time.Second)
	if err != nil {
		l.t.Errorf("%s: %v", name, err)
	} else if resp.RCode != want {
		l.t.Errorf("%s: rcode %v, want %v", name, resp.RCode, want)
	}
}

func (l *learnServer) hits() float64 {
	v, _ := l.srv.Reg.Snapshot().Value(obs.MetricFilterHitsTotal, "filter", "nxdomain")
	return v
}

// TestFiltersLearnOverSockets holds the NXDOMAIN filter to what it can only
// know from the server's own answers: random subdomains make the zone hot at
// the threshold and are penalized from then on, in every tier, while names
// that can exist never are.
func TestFiltersLearnOverSockets(t *testing.T) {
	l := startLearnServer(t)
	for i := 0; i < 9; i++ {
		l.ask(fmt.Sprintf("rnd%d.learn.test", i), false, dnswire.RCodeNXDomain)
	}
	if hot := l.nx.HotZones(); len(hot) != 0 {
		t.Fatalf("hot below the threshold: %v", hot)
	}
	l.ask("rnd9.learn.test", false, dnswire.RCodeNXDomain)
	if hot := l.nx.HotZones(); !slices.Equal(hot, []dnswire.Name{learnOrigin}) {
		t.Fatalf("HotZones after ten NXDOMAIN answers = %v, want [%v]", hot, learnOrigin)
	}
	if got := l.hits(); got != 0 {
		t.Fatalf("nxdomain hits = %v before any query was scored against a hot zone", got)
	}
	// Penalized (60 < Smax) is not discarded: the answer still comes. One
	// query through the view tier, one through the decode tier.
	l.ask("rnd10.learn.test", false, dnswire.RCodeNXDomain)
	l.ask("rnd11.learn.test", true, dnswire.RCodeNXDomain)
	if got := l.hits(); got != 2 {
		t.Fatalf("nxdomain hits = %v after two random subdomains in a hot zone, want 2", got)
	}
	// An owner (view tier, then the hot cache it graduated to), a name
	// under a delegation, a wildcard-covered name, an empty non-terminal.
	for _, name := range []string{"www.learn.test", "www.learn.test", "host.sub.learn.test", "any.wild.learn.test", "wild.learn.test"} {
		l.ask(name, false, dnswire.RCodeNoError)
	}
	l.ask("www.learn.test", true, dnswire.RCodeNoError)
	if got := l.hits(); got != 2 {
		t.Fatalf("nxdomain hits = %v: a name that can exist was penalized", got)
	}
	// Every UDP worker and TCP connection scores against the hot set while
	// feeding the window counts behind it (run under -race in `make race`).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &learnServer{t: t, srv: l.srv, id: uint16(1000 * (g + 1))}
			for i := 0; i < 25; i++ {
				c.ask(fmt.Sprintf("flood%d-%d.learn.test", g, i), g%2 == 1, dnswire.RCodeNXDomain)
			}
		}()
	}
	wg.Wait()
	if got := l.hits(); got != 102 {
		t.Fatalf("nxdomain hits = %v after 100 more random subdomains, want 102", got)
	}
}

// TestHotZoneSeesNewNames: the filter's tree is the zone's current view, so a
// name added while the zone is hot is valid from its first query. (The zone
// is made hot by hand so that the check stands apart from the learning one.)
func TestHotZoneSeesNewNames(t *testing.T) {
	l := startLearnServer(t)
	for i := 0; i < l.nx.Threshold; i++ {
		l.nx.ObserveResponse(learnOrigin, true, 0)
	}
	l.ask("fresh.learn.test", false, dnswire.RCodeNXDomain)
	if got := l.hits(); got != 1 {
		t.Fatalf("nxdomain hits = %v for a name the zone does not hold yet, want 1", got)
	}
	l.store.Put(zone.MustParseMaster(learnZone+"fresh IN A 192.0.2.9\n", learnOrigin))
	l.ask("fresh.learn.test", false, dnswire.RCodeNoError)
	l.ask("fresh.learn.test", true, dnswire.RCodeNoError)
	if got := l.hits(); got != 1 {
		t.Fatalf("nxdomain hits = %v: a name added after the zone went hot was penalized", got)
	}
}

// TestLoyaltyIgnoresSpoofedFlood drives the socketless handler with a
// spoofed random-subdomain flood from 2^17 source addresses against an
// active loyalty filter. Every flood query is penalised, so its answer
// teaches loyalty nothing: the set holds the one incumbent it started with.
// The NXDOMAIN filter still learns from every answer and turns the zone
// hot. Once loyalty stands down, a new resolver's calm query is learned.
func TestLoyaltyIgnoresSpoofedFlood(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(learnZone, learnOrigin))
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	lo := filters.NewLoyalty()
	lo.Observe("192.0.2.200", 0)
	lo.SetActive(true)
	cfg := DefaultConfig()
	cfg.UDPAddr, cfg.TCPAddr = "", ""
	srv := New(cfg, nameserver.NewEngine(store), filters.NewPipeline(nx, lo))
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ask := func(src netip.Addr, name string) dnswire.RCode {
		t.Helper()
		wire, err := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.handlePacket(wire, netip.AddrPortFrom(src, 5353), false, sc)
		if resp == nil {
			return dnswire.RCodeRefused // dropped: no answer to learn from
		}
		m, err := dnswire.Unpack(resp)
		if err != nil {
			t.Fatal(err)
		}
		return m.RCode
	}
	spoofed := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}) }
	const sources = 1 << 17
	nxdomains := 0
	for i := 0; i < sources; i++ {
		if ask(spoofed(i), fmt.Sprintf("r%d.learn.test", i)) == dnswire.RCodeNXDomain {
			nxdomains++
		}
	}
	if nxdomains == 0 || !slices.Equal(nx.HotZones(), []dnswire.Name{learnOrigin}) {
		t.Fatalf("the flood was answered NXDOMAIN %d times and made %v hot, want learn.test hot", nxdomains, nx.HotZones())
	}
	now := srv.now()
	for i := 0; i < sources; i++ {
		if lo.Known(spoofed(i).String(), now) {
			t.Fatalf("loyalty learned spoofed source %v", spoofed(i))
		}
	}
	if !lo.Known("192.0.2.200", now) {
		t.Fatal("the incumbent left the loyalty set")
	}

	calm := netip.MustParseAddr("198.51.100.77")
	lo.SetActive(false)
	if rc := ask(calm, "www.learn.test"); rc != dnswire.RCodeNoError {
		t.Fatalf("calm query rcode %v", rc)
	}
	if !lo.Known(calm.String(), srv.now()) {
		t.Fatal("a calm new resolver was not learned")
	}
}
