package zone

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"akamaidns/internal/dnswire"
)

// The store fuzzer's origins: the root zone, chains of nested zones, and
// neighbours that share a parent without nesting.
var storeModelOrigins = []dnswire.Name{
	dnswire.Root,
	n("test"), n("a.test"), n("b.a.test"), n("c.b.a.test"),
	n("example"), n("x.example"), n("y.x.example"),
	n("other"), n("z.other"), n("w.other"), n("v.w.other"),
}

// below prepends labels to o, innermost last: below(o, "a", "b") is a.b.o.
func below(o dnswire.Name, labels ...string) dnswire.Name {
	for i := len(labels) - 1; i >= 0; i-- {
		var err error
		if o, err = o.Prepend(labels[i]); err != nil {
			panic(err)
		}
	}
	return o
}

// storeModelVersion builds a new version of the zone at origin: an SOA at
// the given serial (none for serial 0) and one record. When compile is set,
// its view is compiled before it is installed, so the install carries the
// view's bytes into the store.
func storeModelVersion(origin dnswire.Name, serial uint32, compile bool) *Zone {
	recs := []dnswire.RR{modelRR(below(origin, "www"), dnswire.TypeA, byte(serial))}
	if serial != 0 {
		recs = append(recs, &dnswire.SOA{RRHeader: dnswire.RRHeader{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 60},
			MName: n("ns.model.test"), RName: n("host.model.test"), Serial: serial, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5})
	}
	z, err := Build(origin, recs)
	if err != nil {
		panic(err)
	}
	if compile {
		z.View()
	}
	return z
}

// modelFind is the longest match written the obvious way: the deepest
// installed origin the name is at or below.
func modelFind(model map[dnswire.Name]*Zone, name dnswire.Name) *Zone {
	var best *Zone
	for o, z := range model {
		if name.IsSubdomainOf(o) && (best == nil || len(o.Labels()) > len(best.Origin().Labels())) {
			best = z
		}
	}
	return best
}

// FuzzStoreModel drives arbitrary batches of zone installs and removals
// through Store.Update and holds the one zone set to a map model: inside a
// batch, Tx.Get must see the batch as it stands; after it, Get, Len,
// Serials, Origins, SerialSum, Find, FindWire, Gen and ViewBytes must all
// agree with the model, while a reader walks the store concurrently (run
// with -race).
func FuzzStoreModel(f *testing.F) {
	// Each step is three bytes: op, origin, argument. Op 5 ends the batch.
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 5, 0, 0, 0, 7, 5, 0, 3, 4})                      // root and a chain, then replace the root
	f.Add([]byte{0, 3, 9, 5, 1, 3, 0, 5, 0, 0, 5, 2, 3, 0, 5, 0, 0})                         // re-put the installed object, an empty batch, delete
	f.Add([]byte{0, 5, 1, 0, 6, 2, 5, 3, 5, 4, 3, 6, 4, 7, 1, 5, 2, 6, 0})                   // delete then re-put, put then delete, in one batch
	f.Add([]byte{0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 4, 3, 5, 2, 2, 0, 2, 4, 0, 6, 1, 0, 5, 6, 1}) // nested deletes under a compiled view
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*96 {
			ops = ops[:3*96]
		}
		s := NewStore()
		model := make(map[dnswire.Name]*Zone)

		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				o := storeModelOrigins[i%len(storeModelOrigins)]
				s.Find(below(o, "www"))
				s.Get(o)
				s.SerialSum()
				s.Serials()
				s.Origins()
			}
		}()
		defer wg.Wait()
		defer close(done)

		for len(ops) > 0 {
			gen0 := s.Gen()
			dirtied := false
			s.Update(func(tx *Tx) {
				for ; len(ops) >= 3; ops = ops[3:] {
					op, o, arg := ops[0]%6, storeModelOrigins[int(ops[1])%len(storeModelOrigins)], ops[2]
					if op == 5 {
						ops = ops[3:]
						return
					}
					put := func(z *Zone) {
						tx.Put(z)
						model[o] = z
						dirtied = true
					}
					del := func() {
						if had := model[o] != nil; tx.Delete(o) != had {
							t.Fatalf("Delete(%s) = %v, model holds %v", o, !had, model[o])
						} else if had {
							delete(model, o)
							dirtied = true
						}
					}
					switch op {
					case 0: // a new version
						put(storeModelVersion(o, uint32(arg>>1), arg&1 == 1))
					case 1: // the installed object again
						if z := model[o]; z != nil {
							put(z)
						}
					case 2:
						del()
					case 3: // delete, then the same object or a new version
						z := model[o]
						del()
						if z == nil || arg&1 == 1 {
							z = storeModelVersion(o, uint32(arg>>1), arg&2 == 2)
						}
						put(z)
					case 4: // a new version that leaves again in the same batch
						put(storeModelVersion(o, uint32(arg>>1), arg&1 == 1))
						del()
					}
					for _, q := range storeModelOrigins {
						if got, want := tx.Get(q), model[q]; got != want {
							t.Fatalf("mid-batch Tx.Get(%s) = %p, model %p", q, got, want)
						}
					}
				}
				ops = nil
			})
			checkStoreAgainstModel(t, s, model)
			want := gen0
			if dirtied {
				want++
			}
			if s.Gen() != want {
				t.Fatalf("Gen %d -> %d, want %d (batch dirtied an origin: %v)", gen0, s.Gen(), want, dirtied)
			}
		}
	})
}

func checkStoreAgainstModel(t *testing.T, s *Store, model map[dnswire.Name]*Zone) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
	}
	serials := make(map[dnswire.Name]uint32, len(model))
	origins := make([]dnswire.Name, 0, len(model))
	var sum uint64
	var viewBytes int64
	for o, z := range model {
		origins = append(origins, o)
		serials[o] = z.Serial()
		sum += mixSerial(o, z.Serial())
		viewBytes += int64(z.ViewBytes())
	}
	if got := s.Serials(); !maps.Equal(got, serials) {
		t.Fatalf("Serials = %v, model %v", got, serials)
	}
	if s.SerialSum() != sum {
		t.Fatalf("SerialSum = %#x, recomputed %#x", s.SerialSum(), sum)
	}
	slices.SortFunc(origins, func(a, b dnswire.Name) int {
		if modelLess(rrKey{name: a}, rrKey{name: b}) {
			return -1
		}
		return 1
	})
	if got := s.Origins(); !slices.Equal(got, origins) {
		t.Fatalf("Origins = %v, model %v", got, origins)
	}
	if s.ViewBytes() != viewBytes {
		t.Fatalf("ViewBytes = %d, installed zones hold %d", s.ViewBytes(), viewBytes)
	}
	for _, o := range storeModelOrigins {
		if got := s.Get(o); got != model[o] {
			t.Fatalf("Get(%s) = %p, model %p", o, got, model[o])
		}
		for _, name := range []dnswire.Name{o, below(o, "www"), below(o, "q", "r", "www")} {
			want := modelFind(model, name)
			if got := s.Find(name); got != want {
				t.Fatalf("Find(%s) = %p, brute force %p", name, got, want)
			}
			wire := name.AppendWire(nil)
			got, off, ok := s.FindWire(wire)
			if got != want || ok != (want != nil) || (ok && string(wire[off:]) != got.view.originWire) {
				t.Fatalf("FindWire(%s) = %p,%d,%v, brute force %p", name, got, off, ok, want)
			}
		}
	}
	if got, want := s.Find(n("nowhere.invalid")), modelFind(model, n("nowhere.invalid")); got != want {
		t.Fatalf("Find(nowhere.invalid) = %p, brute force %p", got, want)
	}
}

// TestStoreReadsAllocationFree pins what the one zone set buys its readers:
// right after an Update, Get, Len and SerialSum are reads of the installed
// set, with nothing to rebuild and nothing to allocate, at any store size.
func TestStoreReadsAllocationFree(t *testing.T) {
	const zones = 1 << 14
	s := NewStore()
	s.Update(func(tx *Tx) {
		for i := 0; i < zones; i++ {
			tx.Put(New(n(fmt.Sprintf("z%05d.alloc.test", i))))
		}
	})
	origin := n("z00042.alloc.test")
	var m0, m1 runtime.MemStats
	least := ^uint64(0)
	for round := 0; round < 5; round++ {
		z := MustParseMaster(fmt.Sprintf("@ IN SOA ns1 host ( %d 3600 600 604800 30 )\n", round+1), origin)
		s.Put(z)
		runtime.ReadMemStats(&m0)
		got, count, sum := s.Get(origin), s.Len(), s.SerialSum()
		runtime.ReadMemStats(&m1)
		if got != z || count != zones || sum == 0 {
			t.Fatalf("round %d: Get %p (want %p), Len %d, SerialSum %#x", round, got, z, count, sum)
		}
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	if least != 0 {
		t.Fatalf("Get, Len and SerialSum after a 1-zone Put allocated %d times", least)
	}
}
