package zone

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
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

// viewHeap compiles every zone's view and reports what the views added to
// the live heap: bytes and objects, measured between settled heaps. No
// collection runs while they compile: a background cycle is what most often
// leaves a runtime object of its own live across the measurement.
func viewHeap(zones []*Zone) (bytes, objects uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := settledHeap()
	for _, z := range zones {
		z.View()
	}
	after := settledHeap()
	runtime.KeepAlive(zones)
	return after.HeapAlloc - before.HeapAlloc, after.HeapObjects - before.HeapObjects
}

// zoneHeap parses n bench-shaped zones, compiles their views and reports
// what holding them at rest — zone, record slab, records, names and view —
// adds to the live heap, measured between settled heaps.
func zoneHeap(tb testing.TB, n int) (bytes, objects uint64) {
	before := settledHeap()
	zones := benchZones(tb, n)
	for _, z := range zones {
		z.View()
	}
	after := settledHeap()
	runtime.KeepAlive(zones)
	return after.HeapAlloc - before.HeapAlloc, after.HeapObjects - before.HeapObjects
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
	for _, z := range zones {
		z.View()
	}
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

// BenchmarkViewCompile compiles one bench-shaped zone's view per iteration.
func BenchmarkViewCompile(b *testing.B) {
	zones := benchZones(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := zones[i%len(zones)]
		if v := z.compileView(); v.Serial() != 1 {
			b.Fatal("bad view")
		}
	}
}

// BenchmarkViewHeapPerZone reports the live heap one compiled view adds
// (B/zone, objects/zone); the timed loop is a compile-all over 2 000 zones.
func BenchmarkViewHeapPerZone(b *testing.B) {
	const n = 2000
	var bytes, objects uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		zones := benchZones(b, n)
		b.StartTimer()
		bytes, objects = viewHeap(zones)
	}
	b.ReportMetric(float64(bytes)/n, "B/zone")
	b.ReportMetric(float64(objects)/n, "objects/zone")
}

// BenchmarkZoneHeapPerZone reports the live heap one hosted zone holds at
// rest, zone and view together (B/zone, objects/zone); the timed loop is a
// parse-and-compile-all over 2 000 zones.
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
// zone. Scratch comes from a pool and every slab is allocated once, at its
// exact size; what is left is what the zone keeps, plus 20 allocations of
// the renderings that check the two multi-record sets for duplicates.
const (
	// parseAllocCeiling: the zone (header, routing key, slab), its records
	// and name strings, one string per line, and the renderings. 191 while
	// Zone.Add copied every record into two maps and each line was re-joined
	// and stripped of parentheses it did not have; 125 while each parse grew
	// a fresh scanner buffer, token slices and record slab.
	parseAllocCeiling = 86
	// compileAllocCeiling: the view header and its five slabs (arena,
	// nodes, sets, names, records); 20 while the arena was packed into an
	// estimate and trimmed, and glue and names were gathered in garbage.
	compileAllocCeiling = 6
	// transferAllocCeiling: the zone's header, routing key and slab, and the
	// renderings; 29 while the slab grew one record at a time and was sorted
	// on first read.
	transferAllocCeiling = 21
)

// TestLoadPathAllocs holds ParseMaster, a view compile and FromTransfer on a
// bench-shaped zone to their allocation ceilings.
func TestLoadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	origin, text := benchZoneText(7)
	z := MustParseMaster(text, origin)
	stream := append(z.AllRecords(), z.SOA())
	for _, c := range []struct {
		name    string
		ceiling float64
		load    func()
	}{
		{"ParseMaster", parseAllocCeiling, func() {
			if _, err := ParseMaster(strings.NewReader(text), origin); err != nil {
				t.Fatal(err)
			}
		}},
		{"compile", compileAllocCeiling, func() {
			z.compileView()
		}},
		{"FromTransfer", transferAllocCeiling, func() {
			if _, err := FromTransfer(origin, stream); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(20, c.load); allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per bench zone, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
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
