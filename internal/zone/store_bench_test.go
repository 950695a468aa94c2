package zone

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// benchStoreFind measures longest-match zone routing across a store of n
// zones — the per-query cost that fronts every lookup, hit or miss.
func benchStoreFind(b *testing.B, n int) {
	s := NewStore()
	for i := 0; i < n; i++ {
		z, err := Build(dnswire.MustName(fmt.Sprintf("zone%03d.example.", i)), []dnswire.RR{&dnswire.A{RRHeader: dnswire.RRHeader{
			Name: dnswire.MustName(fmt.Sprintf("www.zone%03d.example.", i)),
			Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
		}, Addr: mustAddr("192.0.2.1")}})
		if err != nil {
			b.Fatal(err)
		}
		s.Put(z)
	}
	// A deep name in the last-installed zone plus a miss outside every zone:
	// both shapes must route in O(labels), not O(zones).
	hit := dnswire.MustName(fmt.Sprintf("a.b.c.www.zone%03d.example.", n-1))
	miss := dnswire.MustName("a.b.c.unrelated.invalid.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Find(hit) == nil {
			b.Fatal("no zone for hit name")
		}
		if s.Find(miss) != nil {
			b.Fatal("zone for miss name")
		}
	}
}

func BenchmarkStoreFind8Zones(b *testing.B)   { benchStoreFind(b, 8) }
func BenchmarkStoreFind256Zones(b *testing.B) { benchStoreFind(b, 256) }

// BenchmarkStoreFindWire pins the serve-path contract under sharding: the
// wire-form longest-match probe must stay lock-free and 0 allocs/op at any
// store size (the per-probe shard hash is index arithmetic, not allocation).
func BenchmarkStoreFindWire(b *testing.B) {
	s := benchStore(1 << 14)
	hit := dnswire.MustName("a.b.c.www.z0013333.rebuild.bench.").AppendWire(nil)
	miss := dnswire.MustName("a.b.c.unrelated.invalid.").AppendWire(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.FindWire(hit); !ok {
			b.Fatal("no zone for hit name")
		}
		if _, _, ok := s.FindWire(miss); ok {
			b.Fatal("zone for miss name")
		}
	}
}

// benchStores caches populated stores across benchmark re-invocations:
// go test re-runs a benchmark function with growing b.N, and rebuilding a
// 10^6-zone store per invocation would dominate the run.
var benchStores = map[int]*Store{}

func benchStore(n int) *Store {
	if s := benchStores[n]; s != nil {
		return s
	}
	s := NewStore()
	s.Update(func(tx *Tx) {
		for i := 0; i < n; i++ {
			// Empty zones: router rebuild cost depends only on the origin
			// set, and records would put a 10^6-zone store past 1 GB.
			tx.Put(New(dnswire.MustName(fmt.Sprintf("z%07d.rebuild.bench.", i))))
		}
	})
	benchStores[n] = s
	return s
}

// benchRouterRebuildFull measures what the pre-sharding monolithic router
// paid on EVERY apply: re-rendering each origin's wire key and
// re-inserting all n zones into fresh maps, under the store write lock.
func benchRouterRebuildFull(b *testing.B, n int) {
	s := benchStore(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.mu.Lock()
		prev := s.set.Load()
		r := &zoneSet{gen: prev.gen, n: prev.n, sum: prev.sum}
		prev.each(func(z *Zone) {
			key := string(z.Origin().AppendWire(nil))
			si := shardIndex(key)
			if r.shards[si] == nil {
				r.shards[si] = make(map[string]*Zone)
			}
			r.shards[si][key] = z
		})
		s.set.Store(r)
		s.mu.Unlock()
	}
}

// benchRouterRebuildDirty1 measures the sharded path for the same store: a
// single-zone Update that clones and patches only the one shard the origin
// hashes into. The full/dirty ratio at each n is the apply-latency win.
func benchRouterRebuildDirty1(b *testing.B, n int) {
	s := benchStore(n)
	z := New(dnswire.MustName("z0000000.rebuild.bench."))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(func(tx *Tx) { tx.Put(z) })
	}
}

func BenchmarkRouterRebuildFull1e4(b *testing.B)    { benchRouterRebuildFull(b, 1e4) }
func BenchmarkRouterRebuildFull1e5(b *testing.B)    { benchRouterRebuildFull(b, 1e5) }
func BenchmarkRouterRebuildFull1e6(b *testing.B)    { benchRouterRebuildFull(b, 1e6) }
func BenchmarkRouterRebuildDirty1_1e4(b *testing.B) { benchRouterRebuildDirty1(b, 1e4) }
func BenchmarkRouterRebuildDirty1_1e5(b *testing.B) { benchRouterRebuildDirty1(b, 1e5) }
func BenchmarkRouterRebuildDirty1_1e6(b *testing.B) { benchRouterRebuildDirty1(b, 1e6) }

// BenchmarkStoreAtScale is what a nameserver hosting 10⁶ zones holds and
// how fast it loads them: every bench-shaped zone's text is rendered on the
// fly and dropped once parsed, and all of them go through ParseMaster into
// one Store.Update. It reports the live heap each hosted zone costs at rest
// (B/zone and objects/zone, the store's router included) and the load's
// wall time per zone (load-ns/zone, rendering the text excluded).
func BenchmarkStoreAtScale(b *testing.B) {
	const n = 1_000_000
	for i := 0; i < b.N; i++ {
		before := settledHeap()
		var render time.Duration
		start := time.Now()
		store := NewStore()
		store.Update(func(tx *Tx) {
			for j := range n {
				t := time.Now()
				origin, text := benchZoneText(j)
				render += time.Since(t)
				z, err := ParseMaster(strings.NewReader(text), origin)
				if err != nil {
					b.Fatal(err)
				}
				tx.Put(z)
			}
		})
		load := time.Since(start) - render
		after := settledHeap()
		if store.Len() != n {
			b.Fatalf("store holds %d zones, want %d", store.Len(), n)
		}
		runtime.KeepAlive(store)
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "B/zone")
		b.ReportMetric(float64(after.HeapObjects-before.HeapObjects)/n, "objects/zone")
		b.ReportMetric(float64(load.Nanoseconds())/n, "load-ns/zone")
	}
}
