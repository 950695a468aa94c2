package zone

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"akamaidns/internal/dnswire"
)

// The committed miss-path benchmarks elsewhere run on one cache-resident
// zone; these run on a store shaped like the repository benchmark's corpus,
// where every query lands on a different zone's view and the cost that
// matters is cache and TLB misses, not instructions.

// benchZoneText renders zone i in the shape of bench/corpus.go: SOA, 2 NS
// with addresses, 8 hosts (6 A, 2 AAAA), one wildcard, a 2-hop CNAME chain,
// one delegation with glue and a probe record — 22 records, 20 names.
func benchZoneText(i int) (dnswire.Name, string) {
	origin := dnswire.MustName(fmt.Sprintf("z%05dcorp.%s.", i, []string{"com", "net", "org", "io"}[i%4]))
	var sb strings.Builder
	sb.WriteString("$TTL 300\n@ IN SOA ns1 hostmaster ( 1 3600 600 604800 30 )\n@ IN NS ns1\n@ IN NS ns2\n")
	fmt.Fprintf(&sb, "ns1 IN A 198.51.%d.1\nns2 IN A 198.51.%d.2\n", i%256, i%256)
	for h, label := range []string{"www", "api", "mail", "cdn", "img", "app", "static", "m"} {
		if h >= 6 {
			fmt.Fprintf(&sb, "%s IN AAAA 2001:db8:%x::%x\n", label, i%65536, h+1)
		} else {
			fmt.Fprintf(&sb, "%s IN A 203.%d.%d.%d\n", label, i/256%256, i%256, h+1)
		}
	}
	fmt.Fprintf(&sb, "*.wild IN A 192.0.2.%d\n", i%250+1)
	sb.WriteString("alias IN CNAME mid\nmid IN CNAME www\nsub IN NS ns1.sub\nsub IN NS ns2.sub\n")
	fmt.Fprintf(&sb, "ns1.sub IN A 100.64.%d.1\nns2.sub IN A 100.64.%d.2\nprobe IN A 10.0.0.1\n", i%256, i%256)
	return origin, sb.String()
}

// benchZones parses n bench-shaped zones.
func benchZones(tb testing.TB, n int) []*Zone {
	zones := make([]*Zone, n)
	for i := range zones {
		origin, text := benchZoneText(i)
		z, err := ParseMaster(strings.NewReader(text), origin)
		if err != nil {
			tb.Fatal(err)
		}
		zones[i] = z
	}
	return zones
}

// settledHeap reads the live heap after two full collections: the first
// moves the load scratch pool's contents to its victim cache and the second
// frees them, so pooled scratch (which the race detector's pool drops and
// replaces at random) is never counted as what the zones keep.
func settledHeap() (m runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m
}

// zoneHeap parses n bench-shaped zones and reports what holding them at
// rest adds to the live heap, measured between settled heaps: bytes, and
// objects per size class (see liveObjects). No collection runs while they
// load: a background cycle is what most often leaves a runtime object of its
// own live across the measurement.
func zoneHeap(tb testing.TB, n int) (bytes, objects uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before, classesBefore := settledHeap(), sizeClassObjects()
	zones := benchZones(tb, n)
	after, classesAfter := settledHeap(), sizeClassObjects()
	runtime.KeepAlive(zones)
	return after.HeapAlloc - before.HeapAlloc, liveObjects(classesBefore, classesAfter, n)
}

// sizeClassObjects reads the live heap objects of each allocation size
// class: allocations less frees.
func sizeClassObjects() []int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}, {Name: "/gc/heap/frees-by-size:bytes"}}
	metrics.Read(s)
	allocs, frees := s[0].Value.Float64Histogram().Counts, s[1].Value.Float64Histogram().Counts
	live := make([]int64, len(allocs))
	for i := range allocs {
		live[i] = int64(allocs[i]) - int64(frees[i])
	}
	return live
}

// liveObjects sums the objects n zones added over the size classes they
// added at least one to per two zones. What the zones keep recurs zone after
// zone; an object of the runtime's own that a measurement catches now and
// then (most often a 96-byte goroutine wait record a processor caches) is
// one object in one class, and is not counted.
func liveObjects(before, after []int64, n int) (objects uint64) {
	for i := range after {
		if d := after[i] - before[i]; 2*d >= int64(n) {
			objects += uint64(d)
		}
	}
	return objects
}

var coldStore struct {
	store   *Store
	queries [][]byte
}

// coldCorpus builds (once) a 20 000-zone store with every view compiled and
// a shuffled miss_mix-shaped query stream spread over all of it: 50 %
// random-label NXDOMAIN, 28 % referral, 11 % wildcard, 11 % CNAME chain.
func coldCorpus(tb testing.TB) (*Store, [][]byte) {
	if coldStore.store != nil {
		return coldStore.store, coldStore.queries
	}
	const numZones = 20000
	zones := benchZones(tb, numZones)
	store := NewStore()
	store.Update(func(tx *Tx) {
		for _, z := range zones {
			tx.Put(z)
		}
	})
	rng := rand.New(rand.NewSource(1))
	queries := make([][]byte, 1<<17)
	for i := range queries {
		origin := zones[rng.Intn(numZones)].Origin().String()
		var name string
		switch r := rng.Intn(100); {
		case r < 50:
			name = fmt.Sprintf("r%011x.%s", rng.Int63n(1<<44), origin)
		case r < 78:
			name = fmt.Sprintf("h%04x.sub.%s", rng.Intn(1<<16), origin)
		case r < 89:
			name = fmt.Sprintf("w%04x.wild.%s", rng.Intn(1<<16), origin)
		default:
			name = "alias." + origin
		}
		queries[i] = dnswire.MustName(name).AppendWire(nil)
	}
	coldStore.store, coldStore.queries = store, queries
	return store, queries
}

// BenchmarkViewAppendCold is the view tier's two calls — route, then
// assemble — over 20 000 zones with no two consecutive queries in one zone.
func BenchmarkViewAppendCold(b *testing.B) {
	store, queries := coldCorpus(b)
	out := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		z, _, found := store.FindWire(q)
		if !found {
			b.Fatal("unrouted query")
		}
		if _, _, ok := z.View().AppendAnswer(out[:0], q, 12, dnswire.TypeA); !ok {
			b.Fatal("wire path declined")
		}
	}
}

// BenchmarkZoneHeapPerZone reports the live heap one hosted zone holds at
// rest (B/zone, objects/zone); the timed loop is a parse-all over 2 000
// zones.
func BenchmarkZoneHeapPerZone(b *testing.B) {
	const n = 2000
	var bytes, objects uint64
	for i := 0; i < b.N; i++ {
		bytes, objects = zoneHeap(b, n)
	}
	b.ReportMetric(float64(bytes)/n, "B/zone")
	b.ReportMetric(float64(objects)/n, "objects/zone")
}

// The allocation counts of the load path for one 22-record bench-shaped
// zone. Scratch comes from a pool and the slab is allocated once, at its
// exact size; what is left is what the zone keeps.
const (
	// parseAllocCeiling: the zone (header and slab) and the caller's
	// strings.Reader. 191 while Zone.Add copied every record into two maps
	// and each line was re-joined and stripped of parentheses it did not
	// have; 125 while each parse grew a fresh scanner buffer, token slices
	// and record slab; 86 (without the compile, 6 more) while the zone kept
	// its records and compared renderings for duplicates; 70 while each line
	// was copied into a string, each record built as a dnswire.RR and each
	// name resolved into a string of its own; 6 while the view's nodes, sets
	// and owner names were slabs of their own beside the arena.
	parseAllocCeiling = 3
	// parseByteCeiling bounds the bytes those allocations take: 1 584 B,
	// the zone's 1 552 and the reader's 32; 4 296 B while the parse made
	// lines, records and names, 2 112 B while the view kept four slabs.
	parseByteCeiling = 1700
	// transferAllocCeiling: the zone (header and slab); 29 while the slab
	// grew one record at a time and was sorted on first read, 21 while the
	// zone kept the stream's records and compared renderings for
	// duplicates, 5 while the view kept four slabs.
	transferAllocCeiling = 2
)

// TestLoadPathAllocs holds ParseMaster and FromTransfer on a bench-shaped
// zone to their allocation ceilings, and ParseMaster to its byte ceiling.
// Either ends in the zone's compile.
func TestLoadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	origin, text := benchZoneText(7)
	z := MustParseMaster(text, origin)
	stream := append(z.AllRecords(), z.SOA())
	parse := func() {
		if _, err := ParseMaster(strings.NewReader(text), origin); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		load    func()
	}{
		{"ParseMaster", parseAllocCeiling, parse},
		{"FromTransfer", transferAllocCeiling, func() {
			if _, err := FromTransfer(origin, stream); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		allocs := testing.AllocsPerRun(20, c.load)
		t.Logf("%s: %.0f allocs per bench zone", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per bench zone, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
	b := bytesPerRun(20, parse)
	t.Logf("ParseMaster: %.0f B per bench zone", b)
	if b > parseByteCeiling {
		t.Errorf("ParseMaster: %.0f B per bench zone, ceiling %d", b, parseByteCeiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkParseMasterBenchZone parses one bench-shaped zone per iteration.
func BenchmarkParseMasterBenchZone(b *testing.B) {
	origin, text := benchZoneText(7)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMaster(strings.NewReader(text), origin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalLargeRRset builds a zone whose one RRset holds n
// distinct A records and n/5 copies. ns/record stays flat from 5 000 to
// 20 000 records: duplicates are found in O(n log n), not by comparing each
// record with every one kept before it.
func BenchmarkCanonicalLargeRRset(b *testing.B) {
	for _, size := range []int{5000, 20000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			recs, _ := largeSet(size)
			recs = append(recs, soaAt("example.com"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(n("example.com"), recs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}
