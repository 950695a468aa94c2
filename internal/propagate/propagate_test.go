package propagate

import (
	"fmt"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

func mkZone(t testing.TB, origin string, serial uint32, extra string) *zone.Zone {
	t.Helper()
	text := fmt.Sprintf(`
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
%s`, serial, extra)
	return zone.MustParseMaster(text, dnswire.MustName(origin))
}

type simRig struct {
	sched  *simtime.Scheduler
	clock  SimClock
	ctl    *zone.Store
	hist   *zone.History
	src    *Source
	local  *zone.Store
	link   *Link
	puller *Puller
	syncs  int
}

func newRig(t testing.TB, interval time.Duration) *simRig {
	t.Helper()
	r := &simRig{sched: simtime.NewScheduler(), ctl: zone.NewStore(), hist: zone.NewHistory(8), local: zone.NewStore()}
	r.clock = SimClock{Sched: r.sched}
	r.src = NewSource(r.ctl, r.hist)
	r.link = NewLink(r.clock, r.src, 99)
	r.link.SetFaults(Faults{Delay: 10 * time.Millisecond})
	r.puller = New(Config{
		ID: "m0", Clock: r.clock, Transport: r.link, Store: r.local,
		Interval: interval, Timeout: 500 * time.Millisecond, Seed: 7,
		OnSync: func(simtime.Time) { r.syncs++ },
	})
	return r
}

// convergedEqual fails unless the local store content matches the
// controller's, byte for byte.
func (r *simRig) convergedEqual(t *testing.T) {
	t.Helper()
	ctl, local := r.ctl.Serials(), r.local.Serials()
	if len(ctl) != len(local) {
		t.Fatalf("zone count: controller %d, local %d", len(ctl), len(local))
	}
	for origin, serial := range ctl {
		if local[origin] != serial {
			t.Fatalf("zone %s: controller serial %d, local %d", origin, serial, local[origin])
		}
		if ZoneSum(r.ctl.Get(origin)) != ZoneSum(r.local.Get(origin)) {
			t.Fatalf("zone %s: content hash mismatch", origin)
		}
	}
}

func TestPullBootstrapAndDelta(t *testing.T) {
	r := newRig(t, 2*time.Second)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.ctl.Put(mkZone(t, "b.test", 5, "x IN A 192.0.2.9\n"))
	r.puller.Start()
	r.sched.RunFor(5 * time.Second)
	r.convergedEqual(t)
	st := r.puller.Status()
	if st.FullPulls != 2 {
		t.Fatalf("bootstrap should AXFR both zones: %+v", st)
	}
	if !st.Synced || r.syncs == 0 {
		t.Fatalf("no sync signal: %+v", st)
	}

	// A committed change plus a poke: picked up as one IXFR delta.
	r.ctl.Put(mkZone(t, "a.test", 2, "new IN A 192.0.2.50\n"))
	r.puller.Poke()
	r.sched.RunFor(100 * time.Millisecond)
	r.convergedEqual(t)
	st = r.puller.Status()
	if st.DeltaPulls != 1 {
		t.Fatalf("expected one delta pull: %+v", st)
	}
}

func TestPullSerialOnlyBump(t *testing.T) {
	// Heartbeat-style bumps (serial moves, content does not) propagate as
	// empty deltas.
	r := newRig(t, time.Second)
	z := mkZone(t, "a.test", 1, "")
	r.ctl.Put(z)
	r.puller.Start()
	r.sched.RunFor(3 * time.Second)
	next, err := zone.Apply(z, zone.Delta{FromSerial: 1, ToSerial: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.ctl.Put(next)
	r.puller.Poke()
	r.sched.RunFor(100 * time.Millisecond)
	r.convergedEqual(t)
	if got := r.local.Get(dnswire.MustName("a.test")).Serial(); got != 2 {
		t.Fatalf("local serial = %d, want 2", got)
	}
	if st := r.puller.Status(); st.DeltaPulls != 1 {
		t.Fatalf("serial-only bump should be a delta pull: %+v", st)
	}
}

func TestPullEvictedSerialResyncs(t *testing.T) {
	r := newRig(t, time.Second)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.puller.Start()
	r.sched.RunFor(3 * time.Second)
	// Take the link down, burn through the history window (Keep=8), then
	// heal: the machine's serial is evicted and only AXFR can close the
	// gap.
	r.link.SetFaults(Faults{Down: true})
	for s := uint32(2); s <= 30; s++ {
		z := mkZone(t, "a.test", s, fmt.Sprintf("h%d IN A 192.0.2.10\n", s))
		r.ctl.Put(z)
		// Record each commit the way ctlplane does, so old serials
		// actually evict from the bounded history.
		r.hist.Record(z)
		r.sched.RunFor(200 * time.Millisecond)
	}
	r.link.SetFaults(Faults{Delay: 10 * time.Millisecond})
	r.sched.RunFor(10 * time.Second)
	r.convergedEqual(t)
	st := r.puller.Status()
	if st.Resyncs == 0 || st.FullPulls < 2 {
		t.Fatalf("expected eviction-driven resync: %+v", st)
	}
	if st.Retries == 0 || st.Timeouts == 0 {
		t.Fatalf("down link should have produced timeouts+retries: %+v", st)
	}
}

func TestPullDeletePropagates(t *testing.T) {
	r := newRig(t, time.Second)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.ctl.Put(mkZone(t, "b.test", 1, ""))
	r.puller.Start()
	r.sched.RunFor(3 * time.Second)
	r.ctl.Delete(dnswire.MustName("b.test"))
	r.sched.RunFor(3 * time.Second)
	r.convergedEqual(t)
	if r.local.Get(dnswire.MustName("b.test")) != nil {
		t.Fatal("deleted zone still served locally")
	}
	if st := r.puller.Status(); st.Deletes != 1 {
		t.Fatalf("expected one delete: %+v", st)
	}
}

func TestPullCorruptionRejected(t *testing.T) {
	r := newRig(t, 500*time.Millisecond)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.link.SetFaults(Faults{Delay: 10 * time.Millisecond, CorruptRate: 1})
	r.puller.Start()
	r.sched.RunFor(5 * time.Second)
	// Nothing corrupt may ever be installed.
	if z := r.local.Get(dnswire.MustName("a.test")); z != nil {
		if ZoneSum(z) != ZoneSum(r.ctl.Get(dnswire.MustName("a.test"))) {
			t.Fatal("corrupted zone version installed")
		}
	}
	st := r.puller.Status()
	if st.CorruptRejected == 0 {
		t.Fatalf("corruption not detected: %+v", st)
	}
	// Heal the link: full convergence.
	r.link.SetFaults(Faults{Delay: 10 * time.Millisecond})
	r.sched.RunFor(5 * time.Second)
	r.convergedEqual(t)
}

func TestPullDuplicateDeliveriesIgnored(t *testing.T) {
	r := newRig(t, 500*time.Millisecond)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.link.SetFaults(Faults{Delay: 10 * time.Millisecond, DuplicateRate: 1})
	r.puller.Start()
	r.sched.RunFor(5 * time.Second)
	r.convergedEqual(t)
	st := r.puller.Status()
	if st.LateResponses == 0 {
		t.Fatalf("duplicates should be counted as late: %+v", st)
	}
}

func TestPullLossyLinkConverges(t *testing.T) {
	r := newRig(t, 500*time.Millisecond)
	for i := 0; i < 8; i++ {
		r.ctl.Put(mkZone(t, fmt.Sprintf("z%d.test", i), 1, ""))
	}
	r.link.SetFaults(Faults{Delay: 5 * time.Millisecond, DelayJitter: 20 * time.Millisecond, DropRate: 0.5})
	r.puller.Start()
	// Churn under loss.
	for s := uint32(2); s <= 10; s++ {
		r.ctl.Put(mkZone(t, "z0.test", s, fmt.Sprintf("c%d IN A 192.0.2.20\n", s)))
		r.puller.Poke()
		r.sched.RunFor(time.Second)
	}
	r.link.SetFaults(Faults{Delay: 5 * time.Millisecond})
	r.sched.RunFor(30 * time.Second)
	r.convergedEqual(t)
	st := r.puller.Status()
	if st.Timeouts == 0 || st.Retries == 0 {
		t.Fatalf("a 50%% lossy link should have timed out at least once: %+v", st)
	}
}

func TestPullDeterministicUnderSeed(t *testing.T) {
	run := func() Status {
		r := newRig(t, 500*time.Millisecond)
		r.ctl.Put(mkZone(t, "a.test", 1, ""))
		r.link.SetFaults(Faults{Delay: 5 * time.Millisecond, DelayJitter: 10 * time.Millisecond, DropRate: 0.3, CorruptRate: 0.1})
		r.puller.Start()
		for s := uint32(2); s <= 6; s++ {
			r.ctl.Put(mkZone(t, "a.test", s, fmt.Sprintf("c%d IN A 192.0.2.20\n", s)))
			r.sched.RunFor(2 * time.Second)
		}
		r.sched.RunFor(10 * time.Second)
		return r.puller.Status()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestPullLocalDivergenceHealed(t *testing.T) {
	// Same serial, different content (a corrupted disk, an operator edit):
	// the delta won't chain or the content hash trips, and a full
	// transfer heals it.
	r := newRig(t, time.Second)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.puller.Start()
	r.sched.RunFor(3 * time.Second)
	// Diverge the local copy without touching the serial.
	r.local.Put(mkZone(t, "a.test", 1, "rogue IN A 203.0.113.7\n"))
	// Controller commits a change that deletes nothing the rogue copy
	// lacks, so the delta applies cleanly but the content hash differs.
	r.ctl.Put(mkZone(t, "a.test", 2, "ok IN A 192.0.2.30\n"))
	r.sched.RunFor(5 * time.Second)
	r.convergedEqual(t)
	st := r.puller.Status()
	if st.SumMismatches == 0 || st.Resyncs == 0 {
		t.Fatalf("divergence should trip the content hash then resync: %+v", st)
	}
}

func TestSourceNoHistoryBootstrapsFromStore(t *testing.T) {
	// A source whose history never saw explicit Record calls still serves
	// deltas after its lazy sync.
	ctl := zone.NewStore()
	ctl.Put(mkZone(t, "a.test", 3, ""))
	src := NewSource(ctl, nil)
	resp := src.Handle(Request{Op: OpIXFR, Origin: dnswire.MustName("a.test"), FromSerial: 3})
	if !resp.Verify() || resp.Resync || resp.Delta.ToSerial != 3 {
		t.Fatalf("lazy sync failed: %+v", resp)
	}
	// An unknown serial signals resync, never a bogus delta.
	resp = src.Handle(Request{Op: OpIXFR, Origin: dnswire.MustName("a.test"), FromSerial: 1})
	if !resp.Resync {
		t.Fatalf("unknown serial must resync: %+v", resp)
	}
}

// TestSourceSyncAfterLateRecord: a version recorded after a newer one —
// two control-plane applies recording out of order — leaves the older
// serial newest in the history while the store's Gen stands still. The
// next request must still sync, so a delta ends at the serving serial.
func TestSourceSyncAfterLateRecord(t *testing.T) {
	ctl, hist := zone.NewStore(), zone.NewHistory(8)
	v1 := mkZone(t, "a.test", 1, "x IN A 192.0.2.1\n")
	ctl.Put(mkZone(t, "a.test", 2, "x IN A 192.0.2.2\n"))
	src := NewSource(ctl, hist)
	src.Handle(Request{Op: OpCatalog})
	hist.Record(v1)
	resp := src.Handle(Request{Op: OpIXFR, Origin: dnswire.MustName("a.test"), FromSerial: 1})
	if !resp.Verify() || resp.Resync || resp.ToSerial != 2 {
		t.Fatalf("delta from 1 after a late record: %+v", resp)
	}
}

func TestResponseSealVerify(t *testing.T) {
	ctl := zone.NewStore()
	ctl.Put(mkZone(t, "a.test", 1, "r1 IN A 192.0.2.61\nr2 IN A 192.0.2.62\n"))
	src := NewSource(ctl, nil)
	for _, req := range []Request{
		{Op: OpCatalog},
		{Op: OpIXFR, Origin: dnswire.MustName("a.test"), FromSerial: 1},
		{Op: OpAXFR, Origin: dnswire.MustName("a.test")},
	} {
		resp := src.Handle(req)
		if !resp.Verify() {
			t.Fatalf("%v: fresh response fails verification", req.Op)
		}
		if m := mangle(resp); m.Verify() {
			t.Fatalf("%v: mangled response still verifies", req.Op)
		}
	}
}

// TestCatalogSumOrderFree: a catalog's checksum XORs one hash per origin,
// so it needs no sorting. The same serials inserted in two orders seal
// alike, every verification ranges over the map in an order of its own and
// passes, and a mangled catalog still fails.
func TestCatalogSumOrderFree(t *testing.T) {
	const n = 200
	up, down := make(map[dnswire.Name]uint32), make(map[dnswire.Name]uint32)
	for i := range n {
		up[dnswire.MustName(fmt.Sprintf("z%03d.test", i))] = uint32(i + 1)
		j := n - 1 - i
		down[dnswire.MustName(fmt.Sprintf("z%03d.test", j))] = uint32(j + 1)
	}
	a, b := &Response{Op: OpCatalog, Serials: up}, &Response{Op: OpCatalog, Serials: down}
	a.Seal()
	b.Seal()
	if a.Sum != b.Sum {
		t.Fatalf("insertion order moved the catalog sum: %x vs %x", a.Sum, b.Sum)
	}
	for range 10 {
		if !a.Verify() || !b.Verify() {
			t.Fatal("a sealed catalog fails verification")
		}
	}
	if mangle(a).Verify() {
		t.Fatal("mangled catalog still verifies")
	}
}

func TestZoneSumOrderIndependent(t *testing.T) {
	// Two builds of the same content in different insertion orders hash
	// identically (delta-applied zones sort records; originals may not).
	a := mkZone(t, "a.test", 1, "x IN A 192.0.2.1\ny IN A 192.0.2.2\n")
	b := mkZone(t, "a.test", 1, "y IN A 192.0.2.2\nx IN A 192.0.2.1\n")
	if ZoneSum(a) != ZoneSum(b) {
		t.Fatal("ZoneSum depends on insertion order")
	}
	c := mkZone(t, "a.test", 1, "x IN A 192.0.2.1\n")
	if ZoneSum(a) == ZoneSum(c) {
		t.Fatal("ZoneSum blind to content")
	}
}

func TestPullBackoffScheduleDeterministic(t *testing.T) {
	// With a hard-down link the retry cadence is exactly the backoff
	// policy's: verify the failure count over a fixed horizon matches a
	// from-scratch simulation of the same policy.
	r := newRig(t, time.Second)
	r.ctl.Put(mkZone(t, "a.test", 1, ""))
	r.link.SetFaults(Faults{Down: true})
	r.puller.Start()
	r.sched.RunFor(60 * time.Second)
	st := r.puller.Status()
	if st.Synced || st.Failures < 8 {
		t.Fatalf("down link: %+v", st)
	}
	if st.Failures != st.Timeouts {
		t.Fatalf("every failure should be a timeout here: %+v", st)
	}
}
