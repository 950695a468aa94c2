package ctlplane

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// The churn race battery: writers drive changelists through the controller
// while readers answer from compiled views, under -race. The torn-read
// oracle is steganographic — every zone version encodes its SOA serial in
// the www A record's low bytes, so a reader can check that the view it
// answered from and the answer bytes belong to the same version. Any
// half-applied zone (old record, new serial or vice versa) trips it.

func churnAddr(serial uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(serial >> 8), byte(serial)})
}

func churnSerialOf(addr netip.Addr) uint32 {
	a4 := addr.As4()
	return uint32(a4[2])<<8 | uint32(a4[3])
}

func churnDesired(t testing.TB, origin string, serial uint32) *zone.Zone {
	t.Helper()
	a := churnAddr(serial)
	text := fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A %s
api  IN A 192.0.2.200
`, serial, a)
	return zone.MustParseMaster(text, dnswire.MustName(origin))
}

func TestChurnWhileServing(t *testing.T) {
	const (
		writers        = 32
		zonesPerWriter = 2
		rounds         = 100
		readers        = 8
	)
	store := zone.NewStore()
	c := New(store, Config{})

	// Seed every zone at serial 1 in one batch.
	var seed Changelist
	origins := make([]string, 0, writers*zonesPerWriter)
	for w := 0; w < writers; w++ {
		for k := 0; k < zonesPerWriter; k++ {
			origin := fmt.Sprintf("churn-%02d-%d.race.test", w, k)
			origins = append(origins, origin)
			seed.Zones = append(seed.Zones, ZoneChange{
				Origin:  dnswire.MustName(origin),
				Desired: churnDesired(t, origin, 1),
			})
		}
	}
	if p, err := c.SubmitApply(seed); err != nil || p.Status != StatusApplied {
		t.Fatalf("seed apply: %v %+v", err, p)
	}
	rebuildsAfterSeed := store.Gen()

	var (
		stop         atomic.Bool
		appliedPlans atomic.Uint64
		readsDone    atomic.Uint64
		wgWriters    sync.WaitGroup
		wgReaders    sync.WaitGroup
	)
	errs := make(chan string, writers+readers)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
		stop.Store(true)
	}

	// Writers: each owns its zones exclusively, so serials advance without
	// conflicts; every round is one changelist updating both zones.
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			serial := uint32(1)
			for r := 0; r < rounds && !stop.Load(); r++ {
				serial++
				var cl Changelist
				for k := 0; k < zonesPerWriter; k++ {
					origin := fmt.Sprintf("churn-%02d-%d.race.test", w, k)
					cl.Zones = append(cl.Zones, ZoneChange{
						Origin:  dnswire.MustName(origin),
						Desired: churnDesired(t, origin, serial),
					})
				}
				p, err := c.SubmitApply(cl)
				if err != nil {
					fail("writer %d round %d: %v", w, r, err)
					return
				}
				if p.Status != StatusApplied {
					fail("writer %d round %d: plan %s %+v", w, r, p.Status, p.Rejections)
					return
				}
				appliedPlans.Add(1)
			}
		}(w)
	}

	// Readers: route lock-free, answer from the compiled view, and demand
	// version coherence between the view's serial and the serial-coded
	// answer address. Store generation and router rebuild counters must be
	// monotonic from any single reader's perspective.
	for rd := 0; rd < readers; rd++ {
		wgReaders.Add(1)
		go func(rd int) {
			defer wgReaders.Done()
			var lastGen, lastRebuilds uint64
			i := rd
			for !stop.Load() {
				origin := origins[i%len(origins)]
				i += 7 // co-prime stride so readers cover all zones
				qname := dnswire.MustName("www." + origin)
				z := store.Find(qname)
				if z == nil {
					fail("reader %d: zone for %s unroutable mid-churn", rd, origin)
					return
				}
				v := z.View()
				ans := v.Lookup(qname, dnswire.TypeA)
				if len(ans.Answer) != 1 {
					fail("reader %d: %s answered %d records, want 1", rd, qname, len(ans.Answer))
					return
				}
				a, ok := ans.Answer[0].(*dnswire.A)
				if !ok {
					fail("reader %d: %s answered %T", rd, qname, ans.Answer[0])
					return
				}
				if got, want := churnSerialOf(a.Addr), z.Serial(); got != want {
					fail("reader %d: TORN READ on %s: answer encodes serial %d, zone serial %d",
						rd, origin, got, want)
					return
				}
				if g := store.Gen(); g < lastGen {
					fail("reader %d: store generation went backwards %d→%d", rd, lastGen, g)
					return
				} else {
					lastGen = g
				}
				if rb := store.Gen(); rb < lastRebuilds {
					fail("reader %d: router rebuilds went backwards %d→%d", rd, lastRebuilds, rb)
					return
				} else {
					lastRebuilds = rb
				}
				readsDone.Add(1)
			}
		}(rd)
	}

	wgWriters.Wait()
	stop.Store(true)
	wgReaders.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}

	// The debounce invariant: each applied plan cost at most one rebuild.
	applied := appliedPlans.Load()
	if applied != writers*rounds {
		t.Fatalf("applied %d plans, want %d", applied, writers*rounds)
	}
	rebuilds := store.Gen() - rebuildsAfterSeed
	if rebuilds > applied {
		t.Fatalf("%d router rebuilds for %d applied plans (>1 per batch)", rebuilds, applied)
	}
	// Every zone must land on its writer's final serial.
	for _, origin := range origins {
		z := store.Get(dnswire.MustName(origin))
		if z == nil {
			t.Fatalf("zone %s missing after churn", origin)
		}
		if got := z.Serial(); got != rounds+1 {
			t.Fatalf("zone %s serial = %d, want %d", origin, got, rounds+1)
		}
	}
	if readsDone.Load() == 0 {
		t.Fatal("readers performed no reads")
	}
}

// TestChurnPipelinedWhileServing is the sharded + pipelined variant of the
// churn battery: writers push changelists through the staged Pipeline while
// readers route via the lock-free wire-form FindWire path. Two oracles run
// under -race:
//
//   - per-zone version coherence (serial-coded answer vs view serial), as in
//     TestChurnWhileServing;
//   - a torn-batch oracle: each owned changelist writes its pair of zones at
//     the same serial in one batch, so a reader probing zone 0 then zone 1
//     must never see zone 1 behind zone 0 — a single atomic router/zone
//     publish per batch makes the second read at least as new as the first.
//
// A second writer group hammers records-only updates at a small set of
// shared zones, forcing stale serial pins whenever validation of changelist
// N+1 overlaps the commit of N; the revalidation fast path must absorb all
// of them (zero conflicts, no lost updates: each shared zone's final serial
// counts every applied update).
func TestChurnPipelinedWhileServing(t *testing.T) {
	const (
		ownedWriters  = 16
		sharedWriters = 8
		sharedZones   = 4
		rounds        = 60
		readers       = 8
	)
	store := zone.NewStore()
	c := New(store, Config{})
	pl := NewPipeline(c, PipelineConfig{})
	defer pl.Close()

	ownedOrigin := func(w, k int) string { return fmt.Sprintf("owned-%02d-%d.pipe.test", w, k) }
	sharedOrigin := func(s int) string { return fmt.Sprintf("shared-%d.pipe.test", s) }

	var seed Changelist
	for w := 0; w < ownedWriters; w++ {
		for k := 0; k < 2; k++ {
			seed.Zones = append(seed.Zones, ZoneChange{
				Origin:  dnswire.MustName(ownedOrigin(w, k)),
				Desired: churnDesired(t, ownedOrigin(w, k), 1),
			})
		}
	}
	for s := 0; s < sharedZones; s++ {
		seed.Zones = append(seed.Zones, ZoneChange{
			Origin:  dnswire.MustName(sharedOrigin(s)),
			Desired: churnDesired(t, sharedOrigin(s), 1),
		})
	}
	if p, err := c.SubmitApply(seed); err != nil || p.Status != StatusApplied {
		t.Fatalf("seed apply: %v %+v", err, p)
	}
	rebuildsAfterSeed := store.Gen()

	var (
		stop         atomic.Bool
		appliedPlans atomic.Uint64
		readsDone    atomic.Uint64
		wgWriters    sync.WaitGroup
		wgReaders    sync.WaitGroup
	)
	errs := make(chan string, ownedWriters+sharedWriters+readers)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
		stop.Store(true)
	}

	// Owned-pair writers: explicit serials, both zones in one changelist at
	// the same serial — the torn-batch oracle's write side.
	for w := 0; w < ownedWriters; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			for r := 0; r < rounds && !stop.Load(); r++ {
				serial := uint32(r + 2)
				var cl Changelist
				for k := 0; k < 2; k++ {
					cl.Zones = append(cl.Zones, ZoneChange{
						Origin:  dnswire.MustName(ownedOrigin(w, k)),
						Desired: churnDesired(t, ownedOrigin(w, k), serial),
					})
				}
				tk, err := pl.Submit(cl)
				if err != nil {
					fail("owned writer %d round %d submit: %v", w, r, err)
					return
				}
				p, err := tk.Wait()
				if err != nil || p.Status != StatusApplied {
					fail("owned writer %d round %d: err=%v plan=%+v", w, r, err, p)
					return
				}
				appliedPlans.Add(1)
			}
		}(w)
	}

	// Shared-zone writers: records-only submissions against contended
	// zones. Stale pins from pipeline overlap must revalidate, never
	// conflict, never lose an update.
	for w := 0; w < sharedWriters; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			for r := 0; r < rounds && !stop.Load(); r++ {
				origin := sharedOrigin((w + r) % sharedZones)
				desired := zone.MustParseMaster(fmt.Sprintf(`
$TTL 300
www IN A 10.%d.%d.%d
api IN A 192.0.2.200
`, 100+w, (r>>8)&255, r&255), dnswire.MustName(origin))
				tk, err := pl.Submit(Changelist{Zones: []ZoneChange{{
					Origin: dnswire.MustName(origin), Desired: desired,
				}}})
				if err != nil {
					fail("shared writer %d round %d submit: %v", w, r, err)
					return
				}
				p, err := tk.Wait()
				if err != nil || p.Status != StatusApplied {
					fail("shared writer %d round %d: err=%v status=%v conflicts=%d",
						w, r, err, p.Status, p.Conflicts)
					return
				}
				appliedPlans.Add(1)
			}
		}(w)
	}

	// Readers: wire-form lock-free routing (FindWire) + compiled-view
	// answers, with both oracles.
	for rd := 0; rd < readers; rd++ {
		wgReaders.Add(1)
		go func(rd int) {
			defer wgReaders.Done()
			var lastGen uint64
			i := rd
			for !stop.Load() {
				w := i % ownedWriters
				i += 3
				q0 := dnswire.MustName("www." + ownedOrigin(w, 0))
				q1 := dnswire.MustName("www." + ownedOrigin(w, 1))
				read := func(q dnswire.Name) (uint32, bool) {
					z, _, ok := store.FindWire(q.AppendWire(nil))
					if !ok {
						fail("reader %d: %s unroutable mid-churn", rd, q)
						return 0, false
					}
					v := z.View()
					ans := v.Lookup(q, dnswire.TypeA)
					if len(ans.Answer) != 1 {
						fail("reader %d: %s answered %d records, want 1", rd, q, len(ans.Answer))
						return 0, false
					}
					a, ok := ans.Answer[0].(*dnswire.A)
					if !ok {
						fail("reader %d: %s answered %T", rd, q, ans.Answer[0])
						return 0, false
					}
					got := churnSerialOf(a.Addr)
					if want := z.Serial(); got != want {
						fail("reader %d: TORN READ on %s: answer serial %d, zone serial %d",
							rd, q, got, want)
						return 0, false
					}
					return got, true
				}
				s0, ok := read(q0)
				if !ok {
					return
				}
				s1, ok := read(q1)
				if !ok {
					return
				}
				if s1 < s0 {
					fail("reader %d: TORN BATCH for writer %d: zone0 at serial %d, zone1 behind at %d",
						rd, w, s0, s1)
					return
				}
				// Shared zones must stay routable and answerable throughout.
				sq := dnswire.MustName("www." + sharedOrigin(i%sharedZones))
				if z, _, ok := store.FindWire(sq.AppendWire(nil)); !ok {
					fail("reader %d: shared zone %s unroutable", rd, sq)
					return
				} else if ans := z.View().Lookup(sq, dnswire.TypeA); len(ans.Answer) != 1 {
					fail("reader %d: shared zone %s answered %d records", rd, sq, len(ans.Answer))
					return
				}
				if g := store.Gen(); g < lastGen {
					fail("reader %d: store generation went backwards %d→%d", rd, lastGen, g)
					return
				} else {
					lastGen = g
				}
				readsDone.Add(1)
			}
		}(rd)
	}

	wgWriters.Wait()
	stop.Store(true)
	wgReaders.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}

	applied := appliedPlans.Load()
	if want := uint64((ownedWriters + sharedWriters) * rounds); applied != want {
		t.Fatalf("applied %d plans, want %d", applied, want)
	}
	rebuilds := store.Gen() - rebuildsAfterSeed
	if rebuilds > applied {
		t.Fatalf("%d router republishes for %d applied plans (>1 per batch)", rebuilds, applied)
	}
	// Owned zones land on their writer's final serial.
	for w := 0; w < ownedWriters; w++ {
		for k := 0; k < 2; k++ {
			z := store.Get(dnswire.MustName(ownedOrigin(w, k)))
			if z == nil || z.Serial() != rounds+1 {
				t.Fatalf("owned zone %s serial = %v, want %d", ownedOrigin(w, k), z, rounds+1)
			}
		}
	}
	// No lost updates on shared zones: every applied records-only update
	// bumped the serial by exactly one, revalidated or not.
	perShared := sharedWriters * rounds / sharedZones
	for s := 0; s < sharedZones; s++ {
		z := store.Get(dnswire.MustName(sharedOrigin(s)))
		if z == nil {
			t.Fatalf("shared zone %d missing", s)
		}
		if got := z.Serial(); got != uint32(1+perShared) {
			t.Fatalf("shared zone %d serial = %d, want %d (lost or duplicated updates)",
				s, got, 1+perShared)
		}
	}
	if readsDone.Load() == 0 {
		t.Fatal("readers performed no reads")
	}
	t.Logf("pipelined churn: %d plans, %d republishes, %d shard clones, %d revalidations, %d reads",
		applied, rebuilds, store.ShardRebuilds(), pl.Revalidations(), readsDone.Load())
}
