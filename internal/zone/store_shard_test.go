package zone

import (
	"fmt"
	"slices"
	"testing"

	"akamaidns/internal/dnswire"
)

// bruteFind is the reference longest-match: scan every installed origin and
// keep the deepest one that is an ancestor of (or equal to) name.
func bruteFind(s *Store, name dnswire.Name) *Zone {
	var best *Zone
	s.set.Load().each(func(z *Zone) {
		if o := z.Origin(); name.IsSubdomainOf(o) && (best == nil || len(o.Labels()) > len(best.Origin().Labels())) {
			best = z
		}
	})
	return best
}

// TestShardedRouterParity installs enough zones to populate many shards and
// checks that Find (text in, rendered to wire), FindWire, and a brute-force
// longest-suffix scan agree on every origin, on names below and beside
// them, with and without a root zone catching the misses, and across a
// batch that deletes and re-adds an origin in one Update.
func TestShardedRouterParity(t *testing.T) {
	s := NewStore()
	origins := []dnswire.Name{
		dnswire.MustName("example."),
		dnswire.MustName("a.very.deep.origin.example.com."),
	}
	for i := 0; i < 1024; i++ {
		origins = append(origins, dnswire.MustName(fmt.Sprintf("z%04d.shard.test.", i)))
	}
	s.Update(func(tx *Tx) {
		for _, o := range origins {
			tx.Put(New(o))
		}
	})
	probes := append([]dnswire.Name{
		dnswire.Root,
		dnswire.MustName("www.a.very.deep.origin.example.com."),
		dnswire.MustName("deep.origin.example.com."), // above the deep zone: no match without a root zone
		dnswire.MustName("x.y.z0007.shard.test."),
		dnswire.MustName("shard.test."),
		dnswire.MustName("nowhere.invalid."),
	}, origins...)
	check := func(stage string) {
		t.Helper()
		for _, name := range probes {
			want := bruteFind(s, name)
			if got := s.Find(name); got != want {
				t.Fatalf("%s: Find(%s) = %v, brute force says %v", stage, name, got, want)
			}
			wire := name.AppendWire(nil)
			got, off, ok := s.FindWire(wire)
			if got != want || ok != (want != nil) {
				t.Fatalf("%s: FindWire(%s) = %v,%v, brute force says %v", stage, name, got, ok, want)
			}
			if ok && string(wire[off:]) != got.view.originWire {
				t.Fatalf("%s: FindWire(%s) offset %d does not start the origin %s", stage, name, off, got.Origin())
			}
		}
	}
	check("no root zone")
	if s.Find(dnswire.MustName("nowhere.invalid.")) != nil || s.Find(dnswire.Name{}) != nil {
		t.Fatal("a miss or the zero Name routed somewhere without a root zone")
	}

	// A root zone "." is the longest match for everything nothing else owns.
	root := New(dnswire.Root)
	s.Put(root)
	check("root zone installed")
	if z := s.Find(dnswire.MustName("nowhere.invalid.")); z != root {
		t.Fatalf("miss did not fall through to the root zone: %v", z)
	}

	// Delete-then-re-add inside one Update: the batch's last word wins and
	// the router serves the new zone object, never a hole.
	readd := dnswire.MustName("z0007.shard.test.")
	fresh := New(readd)
	s.Update(func(tx *Tx) {
		if !tx.Delete(readd) {
			t.Error("delete of installed zone failed")
		}
		tx.Delete(dnswire.MustName("z0008.shard.test."))
		tx.Put(fresh)
	})
	check("delete and re-add in one batch")
	if z := s.Find(dnswire.MustName("x.y.z0007.shard.test.")); z != fresh {
		t.Fatalf("re-added origin routes to %p, want the fresh zone %p", z, fresh)
	}
	if z := s.Find(dnswire.MustName("z0008.shard.test.")); z != root {
		t.Fatalf("deleted origin routes to %v, want the root zone", z)
	}
}

// TestDirtyShardAccounting pins the O(Δ) contract: a single-zone Update
// republishes exactly one shard map, no matter how many zones are
// installed.
func TestDirtyShardAccounting(t *testing.T) {
	s := NewStore()
	s.Update(func(tx *Tx) {
		for i := 0; i < 2048; i++ {
			tx.Put(New(dnswire.MustName(fmt.Sprintf("z%04d.dirty.test.", i))))
		}
	})
	shards0, rebuilds0 := s.ShardRebuilds(), s.Gen()
	s.Put(New(dnswire.MustName("z0000.dirty.test."))) // replace one zone
	if d := s.ShardRebuilds() - shards0; d != 1 {
		t.Fatalf("single-zone update rebuilt %d shards, want exactly 1", d)
	}
	if d := s.Gen() - rebuilds0; d != 1 {
		t.Fatalf("single-zone update republished %d times, want 1", d)
	}
	// A delete patches the same shard it was installed into.
	shards1 := s.ShardRebuilds()
	if !s.Delete(dnswire.MustName("z0001.dirty.test.")) {
		t.Fatal("delete of installed zone failed")
	}
	if d := s.ShardRebuilds() - shards1; d != 1 {
		t.Fatalf("single-zone delete rebuilt %d shards, want exactly 1", d)
	}
	if s.Find(dnswire.MustName("www.z0001.dirty.test.")) != nil {
		t.Fatal("deleted zone still routable")
	}
	if s.Find(dnswire.MustName("www.z0002.dirty.test.")) == nil {
		t.Fatal("untouched zone lost after dirty-shard republish")
	}
}

// TestSnapshotCache checks the per-set Serials/Origins/SerialSum
// snapshot: identical pointers while the store is unchanged, invalidation on
// every update — a zone's next version swapped in as much as a delete.
func TestSnapshotCache(t *testing.T) {
	s := NewStore()
	z := MustParseMaster(`
$TTL 300
@ IN SOA ns1 host ( 1 3600 600 604800 30 )
www IN A 192.0.2.1
`, dnswire.MustName("snap.test."))
	s.Put(z)
	s.Put(New(dnswire.MustName("other.snap.test.")))

	ser1 := s.Serials()
	org1 := s.Origins()
	sum1 := s.SerialSum()
	if len(ser1) != 2 || len(org1) != 2 {
		t.Fatalf("snapshot sizes = %d/%d, want 2/2", len(ser1), len(org1))
	}
	if org1[0].Compare(org1[1]) >= 0 {
		t.Fatal("Origins not in canonical order")
	}
	if org2 := s.Origins(); &org1[0] != &org2[0] {
		t.Fatal("unchanged store re-sorted the origin list")
	}
	// Unchanged store: the same shared snapshot comes back, no rebuild.
	if s.SerialSum() != sum1 {
		t.Fatal("stable store changed SerialSum")
	}
	ser2 := s.Serials()
	if fmt.Sprintf("%p", ser1) != fmt.Sprintf("%p", ser2) {
		t.Fatal("unchanged store rebuilt the snapshot map")
	}

	// Swapping in a zone's next version must invalidate the cache.
	next, err := Apply(z, Delta{FromSerial: 1, ToSerial: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(next)
	ser3 := s.Serials()
	if ser3[dnswire.MustName("snap.test.")] != 7 {
		t.Fatalf("snapshot missed the swapped-in version: %v", ser3)
	}
	if s.SerialSum() == sum1 {
		t.Fatal("SerialSum unchanged after the swap")
	}

	// A batch change invalidates too, and the sum is order-independent
	// state, so two stores with the same content agree.
	s.Delete(dnswire.MustName("other.snap.test."))
	s2 := NewStore()
	z2 := MustParseMaster(`
$TTL 300
@ IN SOA ns1 host ( 7 3600 600 604800 30 )
www IN A 192.0.2.1
`, dnswire.MustName("snap.test."))
	s2.Put(z2)
	if s.SerialSum() != s2.SerialSum() {
		t.Fatalf("equal stores disagree on SerialSum: %d vs %d", s.SerialSum(), s2.SerialSum())
	}
}

// TestSnapshotSortsLazily pins who pays for canonical order: Origins does,
// once per generation; the serial audits that run on every generation
// (Serials from the pull loop, SerialSum from the convergence sweeps) never
// do. Name.Compare allocates per comparison, so a sort over n origins costs
// far more than n allocations while a sort-free snapshot costs a handful.
func TestSnapshotSortsLazily(t *testing.T) {
	const zones = 512
	s := NewStore()
	first := MustParseMaster("@ IN SOA ns1 host ( 1 3600 600 604800 30 )\n", dnswire.MustName("z000.lazy.test."))
	s.Update(func(tx *Tx) {
		for i := zones - 1; i > 0; i-- {
			tx.Put(New(dnswire.MustName(fmt.Sprintf("z%03d.lazy.test.", i))))
		}
		tx.Put(first)
	})
	// 43 fresh generations, each a next version of the first zone, built
	// outside the measured calls.
	var versions []*Zone
	for serial := 2; serial < 2+43; serial++ {
		versions = append(versions, MustParseMaster(fmt.Sprintf("@ IN SOA ns1 host ( %d 3600 600 604800 30 )\n", serial), first.Origin()))
	}
	freshGen := func() *Zone {
		v := versions[0]
		versions = versions[1:]
		s.Put(v)
		return v
	}
	if a := testing.AllocsPerRun(20, func() { freshGen(); s.Serials() }); a >= zones {
		t.Fatalf("Serials on a fresh generation made %.0f allocations: it is sorting", a)
	}
	if a := testing.AllocsPerRun(20, func() { freshGen(); s.SerialSum() }); a >= zones {
		t.Fatalf("SerialSum on a fresh generation made %.0f allocations: it is sorting", a)
	}
	if v := freshGen(); s.Serials()[first.Origin()] != v.Serial() {
		t.Fatalf("snapshot serial = %d, want %d", s.Serials()[first.Origin()], v.Serial())
	}
	org := s.Origins()
	if len(org) != zones {
		t.Fatalf("Origins lists %d zones, want %d", len(org), zones)
	}
	for i := 1; i < len(org); i++ {
		if org[i-1].Compare(org[i]) >= 0 {
			t.Fatalf("Origins not canonical at %d: %s before %s", i, org[i-1], org[i])
		}
	}
}

// TestTransferOwnership asserts the AXFR stream ownership contract: the
// slice Transfer returns is caller-owned — appending to or mutating it must
// never reach zone-owned memory or a later snapshot.
func TestTransferOwnership(t *testing.T) {
	s := NewStore()
	z := MustParseMaster(`
$TTL 300
@ IN SOA ns1 host ( 5 3600 600 604800 30 )
www IN A 192.0.2.1
txt IN TXT "hello"
`, dnswire.MustName("xfer.test."))
	s.Put(z)

	origin := dnswire.MustName("xfer.test.")
	t1 := s.Transfer(origin)
	if len(t1) < 4 {
		t.Fatalf("transfer stream too short: %d records", len(t1))
	}
	// RFC 5936 framing: SOA first and last, same serial.
	first, okF := t1[0].(*dnswire.SOA)
	last, okL := t1[len(t1)-1].(*dnswire.SOA)
	if !okF || !okL || first.Serial != 5 || last.Serial != 5 {
		t.Fatalf("bad SOA framing: %v ... %v", t1[0], t1[len(t1)-1])
	}

	// Scribble over the caller's copy: append past the end and mutate every
	// record header in place.
	_ = append(t1, t1[0])
	for _, rr := range t1 {
		rr.Header().TTL = 12345
		rr.Header().Name = dnswire.MustName("scribbled.invalid.")
	}

	// A second transfer and the zone's own records must be untouched.
	t2 := s.Transfer(origin)
	if len(t2) != len(t1) {
		t.Fatalf("second transfer has %d records, want %d", len(t2), len(t1))
	}
	for i, rr := range t2 {
		h := rr.Header()
		if h.TTL == 12345 || h.Name == dnswire.MustName("scribbled.invalid.") {
			t.Fatalf("record %d in second transfer aliases the scribbled first stream: %v", i, rr)
		}
	}
	if got := z.RRset(dnswire.MustName("www.xfer.test."), dnswire.TypeA); len(got) != 1 || got[0].Header().TTL != 300 {
		t.Fatalf("zone-owned record mutated through transfer stream: %v", got)
	}
}

// TestApplyTransferTakesRecords pins the hand-over on the receiving side: the
// zone FromTransfer builds takes the stream's records in packed form and
// keeps none of them — the caller may scribble on the stream — while nothing
// ties it to the zone the stream was taken from.
func TestApplyTransferTakesRecords(t *testing.T) {
	origin := dnswire.MustName("xfer.test.")
	www := dnswire.MustName("www.xfer.test.")
	src, dst := NewStore(), NewStore()
	src.Put(MustParseMaster("$TTL 300\n@ IN SOA ns1 host ( 5 3600 600 604800 30 )\nwww IN A 192.0.2.1\n", origin))
	stream := src.Transfer(origin)
	z, err := FromTransfer(origin, stream)
	if err != nil {
		t.Fatal(err)
	}
	dst.Put(z)
	for _, rr := range stream {
		rr.Header().TTL = 12345
	}
	got := dst.Get(origin).View().Lookup(www, dnswire.TypeA).Answer
	if len(got) != 1 || got[0].Header().TTL != 300 || slices.Contains(stream, got[0]) {
		t.Fatalf("installed zone serves %v, which the stream's records reach", got)
	}
	// The source moves on to a version without www; the installed zone is a
	// separate one.
	cur := src.Get(origin)
	next, err := Apply(cur, Delta{FromSerial: 5, ToSerial: 6, Deleted: cur.RRset(www, dnswire.TypeA)})
	if err != nil {
		t.Fatal(err)
	}
	src.Put(next)
	if z.Serial() != 5 || len(z.RRset(www, dnswire.TypeA)) != 1 {
		t.Fatalf("installed zone followed its source: serial %d, www %v", z.Serial(), z.RRset(www, dnswire.TypeA))
	}
}
