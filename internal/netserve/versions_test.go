package netserve

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/qod"
	"akamaidns/internal/zone"
)

// versionsParent is ex.test as TestHotCacheFollowsZoneVersions starts it:
// www.sub is a plain record, answered by the parent until a child zone
// sub.ex.test takes the name over.
const versionsParent = `
$ORIGIN ex.test.
$TTL 300
@       IN SOA ns1 host ( 1 3600 600 604800 30 )
@       IN NS ns1
ns1     IN A 198.51.100.1
www     IN A 192.0.2.1
www.sub IN A 192.0.2.50
`

const versionsChild = `
$ORIGIN sub.ex.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.2
www  IN A 192.0.2.60
`

const versionsOther = `
$ORIGIN other.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.9
www  IN A 192.0.2.9
`

// TestHotCacheFollowsZoneVersions: a hot entry is served exactly while the
// zone version that produced it still routes its name. A swap of one zone
// and a control-plane batch over other zones leave an untouched zone's
// entries hits; the swapped zone's next query misses and answers from the
// new version; a child zone installed under a cached name answers it, and
// once the child is deleted the parent answers again.
func TestHotCacheFollowsZoneVersions(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(versionsParent, dnswire.MustName("ex.test")))
	store.Put(zone.MustParseMaster(versionsOther, dnswire.MustName("other.test")))
	ctl := ctlplane.New(store, ctlplane.Config{})
	srv := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	hits := func() float64 {
		v, _ := srv.Reg.Snapshot().Value(obs.MetricHotCacheHitsTotal)
		return v
	}
	// ask sends one A query and reports the answer's addresses and whether
	// the hot cache served it.
	ask := func(name string) (addrs string, hit bool) {
		t.Helper()
		h0 := hits()
		m, err := dnswire.Unpack(srv.handlePacket(packQuery(t, name, dnswire.TypeA, nil), benchSrc, false, sc))
		if err != nil || m.RCode != dnswire.RCodeNoError {
			t.Fatalf("%s: reply %v %v", name, m, err)
		}
		var got []string
		for _, rr := range m.Answers {
			got = append(got, rr.(*dnswire.A).Addr.String())
		}
		return strings.Join(got, ","), hits() == h0+1
	}
	expect := func(step, name, addrs string, hit bool) {
		t.Helper()
		if got, gotHit := ask(name); got != addrs || gotHit != hit {
			t.Errorf("%s: %s answered %q, hit %v; want %q, hit %v", step, name, got, gotHit, addrs, hit)
		}
	}
	for _, name := range []string{"www.ex.test", "www.other.test", "www.sub.ex.test"} {
		ask(name)
	}
	expect("warm", "www.ex.test", "192.0.2.1", true)
	expect("warm", "www.other.test", "192.0.2.9", true)
	expect("warm", "www.sub.ex.test", "192.0.2.50", true)

	putNext(t, store, zone.Delta{ToSerial: 2, Added: []dnswire.RR{&dnswire.A{
		RRHeader: dnswire.RRHeader{Name: dnswire.MustName("www.ex.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
		Addr:     netip.MustParseAddr("192.0.2.2"),
	}}})
	expect("ex.test swapped", "www.other.test", "192.0.2.9", true)
	expect("ex.test swapped", "www.ex.test", "192.0.2.1,192.0.2.2", false)
	expect("ex.test swapped", "www.ex.test", "192.0.2.1,192.0.2.2", true)

	var cl ctlplane.Changelist
	for i := 0; i < 4; i++ {
		origin := dnswire.MustName(fmt.Sprintf("c%d.churn.test", i))
		cl.Zones = append(cl.Zones, ctlplane.ZoneChange{Origin: origin, Desired: zone.MustParseMaster(
			"$TTL 300\n@ IN SOA ns1 host ( 1 3600 600 604800 30 )\n@ IN NS ns1\nns1 IN A 198.51.100.3\n", origin)})
	}
	if p, err := ctl.SubmitApply(cl); err != nil || p.Status != ctlplane.StatusApplied {
		t.Fatalf("control-plane batch: %v %+v", err, p)
	}
	expect("batch over other zones", "www.other.test", "192.0.2.9", true)
	expect("batch over other zones", "www.ex.test", "192.0.2.1,192.0.2.2", true)

	child := dnswire.MustName("sub.ex.test")
	store.Put(zone.MustParseMaster(versionsChild, child))
	expect("child installed", "www.sub.ex.test", "192.0.2.60", false)
	expect("child installed", "www.sub.ex.test", "192.0.2.60", true)
	expect("child installed", "www.ex.test", "192.0.2.1,192.0.2.2", true)

	store.Delete(child)
	expect("child deleted", "www.sub.ex.test", "192.0.2.50", false)
	expect("child deleted", "www.sub.ex.test", "192.0.2.50", true)
}

// versionNames, versionTypes: FuzzHotCacheVersions' query universe — the
// parent's apex and hosts, names a child zone sub.ex.test takes over while
// it is installed, and a name no zone serves — and the types asked.
var (
	versionNames = []string{"ex.test", "www.ex.test", "h0.ex.test", "h1.ex.test",
		"sub.ex.test", "www.sub.ex.test", "h0.sub.ex.test", "nope.sub.ex.test", "www.other.test"}
	versionTypes = []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeTXT, dnswire.TypeSOA}
)

// The records a version of the parent or the child may hold, one bit each.
var (
	parentOptional = []string{"h0 IN A 192.0.2.10", `h1 IN TXT "h1"`, "www.sub IN A 192.0.2.50",
		"h0.sub IN AAAA 2001:db8::50", "www IN AAAA 2001:db8::1", "sub IN TXT \"parent\""}
	childOptional = []string{"www IN A 192.0.2.60", "h0 IN AAAA 2001:db8::60", `@ IN TXT "child"`, "* IN A 192.0.2.61"}
)

// versionZone builds a version of origin at serial holding the optional
// records whose bits are set.
func versionZone(origin string, serial uint32, optional []string, bits uint8) *zone.Zone {
	var b strings.Builder
	fmt.Fprintf(&b, "$TTL 300\n@ IN SOA ns1 host ( %d 3600 600 604800 30 )\n@ IN NS ns1\nns1 IN A 198.51.100.1\nwww IN A 192.0.2.1\n", serial)
	for i, rr := range optional {
		if bits&(1<<i) != 0 {
			b.WriteString(rr + "\n")
		}
	}
	return zone.MustParseMaster(b.String(), dnswire.MustName(origin))
}

// FuzzHotCacheVersions runs an arbitrary sequence of zone changes and
// queries against one server whose hot cache stays warm throughout, and
// holds every reply, as the store is at that moment, to the bytes the tiers
// send with nothing cached and to the decode path's answer (which may
// compress names the wire tiers leave whole, so it is compared decoded).
// Each op is two bytes, an opcode and its argument: install
// the parent's next version with one optional record toggled; install the
// child zone's next version likewise; delete the child; re-install an
// earlier version object of either (the ABA case); or ask a name, type and
// EDNS choice the argument picks.
func FuzzHotCacheVersions(f *testing.F) {
	q := func(name, typ int, edns bool) byte {
		arg := name + len(versionNames)*typ
		if edns {
			arg += len(versionNames) * len(versionTypes)
		}
		return byte(arg)
	}
	const parent, child, drop, reinstall, ask = 0, 1, 2, 3, 4
	www, wwwSub := q(1, 0, false), q(5, 0, false)
	// Warm, swap in a version without the cached record, ask again.
	f.Add([]byte{ask, q(1, 1, false), ask, q(1, 1, false), parent, 4, ask, q(1, 1, false), ask, www})
	// A child zone takes over a cached name and gives it back.
	f.Add([]byte{ask, wwwSub, ask, wwwSub, child, 0, ask, wwwSub, ask, wwwSub, drop, 0, ask, wwwSub, ask, wwwSub})
	// ABA: a name cached under the first version, a swap it is not asked
	// across, the first version re-installed.
	f.Add([]byte{ask, q(2, 0, true), ask, q(2, 0, true), parent, 0, reinstall, 0, ask, q(2, 0, true), parent, 0, ask, q(2, 0, true)})
	// The child's wildcard and apex, with and without EDNS, across reinstalls.
	f.Add([]byte{child, 3, ask, q(7, 0, false), ask, q(4, 2, true), reinstall, 1, ask, q(7, 0, false), drop, 0, ask, q(7, 0, false), reinstall, 2, ask, q(4, 2, true)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		store := zone.NewStore()
		serial, pbits, cbits := uint32(1), uint8(0x3f), uint8(0)
		var versions []*zone.Zone
		install := func(z *zone.Zone) {
			store.Put(z)
			versions = append(versions, z)
		}
		install(versionZone("ex.test", serial, parentOptional, pbits))
		cfg := DefaultConfig()
		cfg.Flight = nil // its rings cost more to build than a whole input takes to run
		srv := New(cfg, nameserver.NewEngine(store), nil)
		ref := New(cfg, nameserver.NewEngine(store), nil)
		sc, rsc := scratchPool.Get().(*scratch), scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		defer scratchPool.Put(rsc)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 8 {
			case parent:
				serial++
				pbits ^= 1 << (arg % len(parentOptional))
				install(versionZone("ex.test", serial, parentOptional, pbits))
			case child:
				serial++
				cbits ^= 1 << (arg % len(childOptional))
				install(versionZone("sub.ex.test", serial, childOptional, cbits))
			case drop:
				store.Delete(dnswire.MustName("sub.ex.test"))
			case reinstall:
				store.Put(versions[arg%len(versions)])
			default:
				n := arg % len(versionNames)
				typ := versionTypes[arg/len(versionNames)%len(versionTypes)]
				m := dnswire.NewQuery(0x5151, dnswire.MustName(versionNames[n]), typ)
				if arg/(len(versionNames)*len(versionTypes))%2 == 1 {
					m.Additional = append(m.Additional, dnswire.NewOPT(1232))
				}
				wire, err := m.Pack()
				if err != nil {
					t.Fatal(err)
				}
				got := append([]byte(nil), srv.handlePacket(wire, benchSrc, false, sc)...)
				// A fresh scratch binds a fresh, empty hot cache: the bytes the
				// tiers send for this store with nothing cached.
				cold := ref.handlePacket(wire, benchSrc, false, &scratch{})
				want := ref.handleSlow(wire, benchSrc, false, rsc, qod.LevelFull)
				if !bytes.Equal(got, cold) || messageSummary(t, got) != messageSummary(t, want) {
					t.Fatalf("op %d: %s %v edns=%v:\n served %s\n cold   %s\n decode %s", i/2, versionNames[n], typ,
						len(m.Additional) > 0, messageSummary(t, got), messageSummary(t, cold), messageSummary(t, want))
				}
			}
		}
	})
}
