package nameserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

func TestHotCacheLookupInsert(t *testing.T) {
	c := NewHotCache(8)
	key := []byte("www.example.com\x00\x00\x01\x00\x01\x02")
	if _, ok := c.Lookup(key, 1); ok {
		t.Fatal("hit on empty cache")
	}
	e := &HotEntry{Wire: []byte{1, 2, 3}, Name: dnswire.MustName("www.example.com")}
	c.Insert(key, e, 1)
	got, ok := c.Lookup(key, 1)
	if !ok || !bytes.Equal(got.Wire, e.Wire) || got.Name != e.Name {
		t.Fatal("inserted entry not returned")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

// TestHotCacheVersions: an entry is served only under the version it was
// filed under. A lookup under another version misses and leaves the entry in
// place — the version it carries may route the name again — and an insert
// under another version replaces it, counting the one entry dropped. Entries
// of other keys are untouched throughout.
func TestHotCacheVersions(t *testing.T) {
	c := NewHotCache(8)
	key, other := []byte("k"), []byte("other")
	c.Insert(key, &HotEntry{Wire: []byte("v1")}, 1)
	c.Insert(other, &HotEntry{Wire: []byte("o")}, 5)
	if _, ok := c.Lookup(key, 2); ok {
		t.Fatal("entry of version 1 served under version 2")
	}
	if got, ok := c.Lookup(key, 1); !ok || string(got.Wire) != "v1" {
		t.Fatal("a lookup under another version dropped the entry")
	}
	c.Insert(key, &HotEntry{Wire: []byte("v2")}, 2)
	if _, ok := c.Lookup(key, 1); ok {
		t.Fatal("replaced entry of version 1 still served")
	}
	if got, ok := c.Lookup(key, 2); !ok || string(got.Wire) != "v2" {
		t.Fatal("entry of version 2 not served")
	}
	if _, _, ev := c.Stats(); ev != 1 || c.Len() != 2 {
		t.Fatalf("%d evictions, Len %d; want 1 and 2", ev, c.Len())
	}
	c.Insert(key, &HotEntry{Wire: []byte("v2 again")}, 2)
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("a same-version overwrite counted as an eviction: %d", ev)
	}
	if got, ok := c.Lookup(other, 5); !ok || string(got.Wire) != "o" {
		t.Fatal("another key's entry lost")
	}
}

func TestHotCacheCapacityEviction(t *testing.T) {
	c := NewHotCache(4)
	for i := 0; i < 10; i++ {
		c.Insert([]byte(fmt.Sprintf("key-%d", i)), &HotEntry{}, 1)
	}
	if c.Len() > 4 {
		t.Fatalf("len = %d exceeds max 4", c.Len())
	}
	_, _, evictions := c.Stats()
	if evictions < 6 {
		t.Fatalf("evictions = %d, want >= 6", evictions)
	}
}

// TestHotCacheRecyclesInPlace: once a cache is full, fresh keys recycle
// slots — their key and wire buffers included — without allocating, the
// size never passes the bound, and an entry is served until it is evicted.
func TestHotCacheRecyclesInPlace(t *testing.T) {
	const max, inserts = 64, 10000
	c := NewHotCache(max)
	keys := make([][]byte, max+inserts+1) // AllocsPerRun adds a warm-up call
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%06d.example.test\x00\x00\x01\x00\x01\x02", i))
	}
	wire := make([]byte, 200)
	e := &HotEntry{Wire: wire, QnameLen: 20, Name: dnswire.MustName("www.example.test")}
	for _, k := range keys[:max] {
		c.Insert(k, e, 1)
	}
	i := max
	allocs := testing.AllocsPerRun(inserts, func() {
		c.Insert(keys[i], e, 1)
		if c.Len() > max {
			t.Fatalf("len %d passes the bound %d", c.Len(), max)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a full cache allocates %.2f per fresh-key insert", allocs)
	}
	// Every key still resident is served with its own entry, and exactly the
	// bound's worth are resident.
	resident := 0
	for _, k := range keys {
		if got, ok := c.Lookup(k, 1); ok {
			resident++
			if len(got.Wire) != len(wire) || got.Name != e.Name {
				t.Fatalf("key %s serves a foreign entry", k)
			}
		}
	}
	if resident != max || c.Len() != max {
		t.Fatalf("%d keys resident, Len %d, want %d", resident, c.Len(), max)
	}
	if _, ok := c.Lookup(keys[len(keys)-1], 1); !ok {
		t.Fatal("the newest entry was evicted by its own insert")
	}
}

// TestHotCacheModel drives random inserts over a small key universe and
// holds the cache to a set model: the key just inserted is resident, at most
// one other key left, nothing foreign appeared, and every resident key
// serves the entry inserted under it.
func TestHotCacheModel(t *testing.T) {
	const max, universe = 16, 64
	c := NewHotCache(max)
	rng := rand.New(rand.NewSource(1))
	model := map[int]bool{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	for op := 0; op < 5000; op++ {
		k := rng.Intn(universe)
		c.Insert(key(k), &HotEntry{Wire: key(k)}, 1)
		model[k] = true
		gone := 0
		for i := 0; i < universe; i++ {
			got, ok := c.Lookup(key(i), 1)
			switch {
			case ok && !model[i]:
				t.Fatalf("op %d: key %d resident without an insert", op, i)
			case ok && string(got.Wire) != string(key(i)):
				t.Fatalf("op %d: key %d serves %q", op, i, got.Wire)
			case !ok && model[i]:
				delete(model, i)
				gone++
			}
		}
		if !model[k] || gone > 1 || len(model) != c.Len() || c.Len() > max {
			t.Fatalf("op %d: inserted %d resident=%v, %d evicted, model %d, Len %d",
				op, k, model[k], gone, len(model), c.Len())
		}
	}
}

// TestStoreGenAdvancesOnChanges: the store generation moves exactly once per
// Update that installs or removes a zone, however many zones it touches, and
// never when a zone is built that is not installed.
func TestStoreGenAdvancesOnChanges(t *testing.T) {
	store := zone.NewStore()
	origin := dnswire.MustName("ex.test")
	serial := uint32(0)
	build := func(o dnswire.Name) *zone.Zone {
		serial++
		z, err := zone.Build(o, []dnswire.RR{&dnswire.SOA{RRHeader: dnswire.RRHeader{Name: o,
			Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 300},
			MName: dnswire.MustName("ns1.ex.test"), RName: dnswire.MustName("host.ex.test"),
			Serial: serial, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 30},
			&dnswire.A{RRHeader: dnswire.RRHeader{Name: dnswire.MustName("www." + o.String()),
				Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
				Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(serial)})}})
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	next := func(tx *zone.Tx) {
		cur := tx.Get(origin)
		z, err := zone.Apply(cur, zone.Delta{FromSerial: cur.Serial(), ToSerial: cur.Serial() + 1})
		if err != nil {
			t.Fatal(err)
		}
		tx.Put(z)
	}
	for _, step := range []struct {
		name   string
		update func(tx *zone.Tx)
		moves  uint64 // how far the update moves the generation
	}{
		{"Put", func(tx *zone.Tx) { tx.Put(build(origin)) }, 1},
		{"next version", next, 1},
		{"three zones in one batch", func(tx *zone.Tx) {
			next(tx)
			tx.Put(build(dnswire.MustName("a.test")))
			tx.Put(build(dnswire.MustName("b.test")))
		}, 1},
		{"reads only", func(tx *zone.Tx) { tx.Get(origin); tx.Delete(dnswire.MustName("missing.test")) }, 0},
		{"Delete", func(tx *zone.Tx) { tx.Delete(origin) }, 1},
	} {
		g := store.Gen()
		build(origin)
		if store.Gen() != g {
			t.Fatalf("before %s: building a zone that is not installed moved the generation", step.name)
		}
		store.Update(step.update)
		if store.Gen() != g+step.moves {
			t.Fatalf("%s: generation %d -> %d, want %d", step.name, g, store.Gen(), g+step.moves)
		}
	}
}
