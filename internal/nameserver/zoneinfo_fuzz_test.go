package nameserver

import (
	"bytes"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/zone"
)

// canExistZone has every shape CanExist must tell apart: owners, a wildcard,
// empty non-terminals (ent, b.ent), a cut with glue, and a child zone hosted
// beside it (in.fz.test).
const canExistZone = `
$ORIGIN fz.test.
$TTL 300
@        IN SOA ns1 host ( 1 3600 600 604800 30 )
@        IN NS ns1
ns1      IN A 198.51.100.1
www      IN A 192.0.2.1
*.wild   IN A 192.0.2.7
a.b.ent  IN A 192.0.2.8
sub      IN NS ns1.sub
ns1.sub  IN A 192.0.2.53
`

const canExistChild = `
$ORIGIN in.fz.test.
$TTL 300
@        IN SOA ns1 host ( 1 3600 600 604800 30 )
@        IN NS ns1
ns1      IN A 198.51.100.2
host     IN AAAA 2001:db8::1
`

// FuzzCanExistWire holds the NXDOMAIN filter's wire-form path to the
// Name-rendered one it replaced. qname is the raw question name of a query,
// mask its 0x20 casing. Whenever the wire tiers would accept the name
// (AppendQnameFolded), the folded bytes must be exactly the parsed Name
// rendered back to wire, CanExist must agree on both, a name that cannot
// exist must get NXDOMAIN for every type, and NXDomain.Score must be the
// same whether the query carries Qname or only Name.
func FuzzCanExistWire(f *testing.F) {
	st := zone.NewStore()
	st.Put(zone.MustParseMaster(canExistZone, n("fz.test")))
	st.Put(zone.MustParseMaster(canExistChild, n("in.fz.test")))
	zi := StoreZoneInfo{Store: st}
	nx := filters.NewNXDomain(zi, filters.PerHotZone)
	for _, origin := range []string{"fz.test", "in.fz.test"} {
		for i := 0; i < nx.Threshold; i++ {
			nx.ObserveResponse(n(origin), true, 0)
		}
	}
	for _, seed := range []string{
		"fz.test", "www.fz.test", "x.wild.fz.test", "y.x.wild.fz.test", "wild.fz.test",
		"b.ent.fz.test", "ent.fz.test", "a.b.ent.fz.test", "sub.fz.test", "host.sub.fz.test",
		"junk.fz.test", "x.www.fz.test", "in.fz.test", "host.in.fz.test", "nope.in.fz.test",
		"other.zone", "*.wild.fz.test", "_srv.fz.test", "a-b.fz.test",
	} {
		f.Add(n(seed).AppendWire(nil), uint64(0x5a5a5a5a5a5a5a5a))
	}
	f.Add([]byte{0}, uint64(0))
	f.Add([]byte("\x03w.w\x02fz\x04test\x00"), uint64(0))
	f.Add([]byte("\x03www\x02fz\x04test\x00\x00"), uint64(0))
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeTXT, dnswire.TypeCNAME}
	f.Fuzz(func(t *testing.T, qname []byte, mask uint64) {
		wire := append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, qname...)
		for i := 12; i < len(wire); i++ {
			// Length octets (at most 63) are never letters.
			if c := wire[i] | 0x20; 'a' <= c && c <= 'z' && mask>>(i%64)&1 == 1 {
				wire[i] ^= 0x20
			}
		}
		wire = append(wire, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassINET))
		v, ok := dnswire.ParseQueryView(wire)
		if !ok {
			return
		}
		folded, ok := v.AppendQnameFolded(nil, wire)
		if !ok {
			return
		}
		name, ok := dnswire.NameFromFoldedWire(folded)
		if !ok {
			t.Fatalf("accepted folded name %q has no Name", folded)
		}
		if rendered := name.AppendWire(nil); !bytes.Equal(rendered, folded) {
			t.Fatalf("Name %s renders %q, the wire tiers fold %q", name, rendered, folded)
		}
		got := zi.CanExist(folded)
		if want := zi.CanExist(name.AppendWire(nil)); got != want {
			t.Fatalf("CanExist(%s) = %v on the folded wire, %v rendered from Name", name, got, want)
		}
		z, _, routed := st.FindWire(folded)
		if routed && !got {
			for _, typ := range types {
				if res := z.View().Lookup(name, typ).Result; res != zone.NXDomain {
					t.Fatalf("CanExist(%s) = false, but %v gets result %v", name, typ, res)
				}
			}
		}
		byWire := filters.Query{Resolver: "r1", Qname: folded, Type: v.QType}
		if routed {
			byWire.Zone = z.Origin()
		}
		byName := byWire
		byName.Qname, byName.Name = nil, name
		sw, sn := nx.Score(&byWire), nx.Score(&byName)
		if sw != sn {
			t.Fatalf("%s: NXDomain scored %v with Qname, %v with Name", name, sw, sn)
		}
		if want := routed && !got; (sw > 0) != want {
			t.Fatalf("%s in a hot zone: scored %v, want a penalty: %v", name, sw, want)
		}
	})
}
