package ctlplane

import (
	"fmt"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// recordsOnly builds a desired zone with no SOA (the records-only
// submission workflow: the platform inherits and versions the serving SOA).
func recordsOnly(t testing.TB, origin string, addr string) *zone.Zone {
	t.Helper()
	z := zone.MustParseMaster(fmt.Sprintf("www IN A %s\n", addr), dnswire.MustName(origin))
	return z
}

func seedZone(t testing.TB, c *Controller, origin string, serial uint32) {
	t.Helper()
	p, err := c.SubmitApply(Changelist{Zones: []ZoneChange{{
		Origin:  dnswire.MustName(origin),
		Desired: churnDesired(t, origin, serial),
	}}})
	if err != nil || p.Status != StatusApplied {
		t.Fatalf("seed %s: %v %+v", origin, err, p)
	}
}

// TestPipelineBasic drives changelists through the staged pipeline and
// checks they commit with the same outcomes the serial path would produce,
// that rejection finishes at the validation gate, and that Close drains.
func TestPipelineBasic(t *testing.T) {
	store := zone.NewStore()
	c := New(store, Config{})
	pl := NewPipeline(c, PipelineConfig{})
	defer pl.Close()

	seedZone(t, c, "pipe.test", 1)

	for i := 0; i < 10; i++ {
		p, err := pl.SubmitWait(Changelist{Zones: []ZoneChange{{
			Origin:  dnswire.MustName("pipe.test"),
			Desired: recordsOnly(t, "pipe.test", fmt.Sprintf("10.9.0.%d", i+1)),
		}}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if p.Status != StatusApplied {
			t.Fatalf("submit %d: status %s %+v", i, p.Status, p.Rejections)
		}
	}
	if got := store.Get(dnswire.MustName("pipe.test")).Serial(); got != 11 {
		t.Fatalf("serial after 10 pipelined updates = %d, want 11", got)
	}
	if d := pl.Depth(); d != 0 {
		t.Fatalf("pipeline depth %d after quiesce, want 0", d)
	}

	// A validation-gate rejection never reaches the commit stage.
	p, err := pl.SubmitWait(Changelist{Zones: []ZoneChange{{
		Origin: dnswire.MustName("brandnew.test"),
		// Create without an SOA is rejected.
		Desired: recordsOnly(t, "brandnew.test", "10.9.9.9"),
	}}})
	if err != nil || p.Status != StatusRejected {
		t.Fatalf("no-soa create through pipeline: err=%v status=%+v", err, p)
	}

	pl.Close()
	if _, err := pl.Submit(Changelist{}); err != ErrPipelineClosed {
		t.Fatalf("Submit after Close: err=%v, want ErrPipelineClosed", err)
	}
}

// TestApplyRevalidation pins the revalidation-on-conflict fast path: plans
// computed against a serving state that an earlier pipelined commit has
// since moved are re-pinned inside the store batch rather than skipped.
func TestApplyRevalidation(t *testing.T) {
	origin := "reval.test"

	newCtl := func() *Controller {
		c := New(zone.NewStore(), Config{})
		seedZone(t, c, origin, 1)
		return c
	}

	t.Run("inherit-soa-repins", func(t *testing.T) {
		c := newCtl()
		// Both plans computed against serial 1.
		p1 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.1.1.1")}}})
		p2 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.2.2.2")}}})
		if err := c.Apply(p1); err != nil || p1.Status != StatusApplied {
			t.Fatalf("apply p1: %v %s", err, p1.Status)
		}
		reval, err := c.applyPlan(p2, true)
		if err != nil {
			t.Fatal(err)
		}
		if reval != 1 || p2.Status != StatusApplied || p2.Conflicts != 0 {
			t.Fatalf("revalidated=%d status=%s conflicts=%d, want 1/applied/0",
				reval, p2.Status, p2.Conflicts)
		}
		z := c.Store().Get(dnswire.MustName(origin))
		if got := z.Serial(); got != 3 {
			t.Fatalf("serial = %d, want 3 (seed 1 → p1 2 → re-pinned p2 3)", got)
		}
		rr := z.RRset(dnswire.MustName("www."+origin), dnswire.TypeA)
		if len(rr) != 1 || rr[0].(*dnswire.A).Addr.String() != "10.2.2.2" {
			t.Fatalf("p2 content not serving after revalidation: %v", rr)
		}
		if !p2.Zones[0].Revalidated || p2.Zones[0].ToSerial != 3 {
			t.Fatalf("zone plan not re-pinned: %+v", p2.Zones[0])
		}
	})

	t.Run("inherit-soa-noop-when-content-already-serving", func(t *testing.T) {
		c := newCtl()
		p1 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.1.1.1")}}})
		p2 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.1.1.1")}}})
		if err := c.Apply(p1); err != nil {
			t.Fatal(err)
		}
		reval, err := c.applyPlan(p2, true)
		if err != nil {
			t.Fatal(err)
		}
		if reval != 1 || p2.Conflicts != 0 || p2.NoOps != 1 {
			t.Fatalf("reval=%d conflicts=%d noops=%d, want 1/0/1", reval, p2.Conflicts, p2.NoOps)
		}
		// The earlier commit's serial keeps serving: no gratuitous bump.
		if got := c.Store().Get(dnswire.MustName(origin)).Serial(); got != 2 {
			t.Fatalf("serial = %d, want 2", got)
		}
	})

	t.Run("explicit-serial-still-advancing-applies", func(t *testing.T) {
		c := newCtl()
		p1 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.1.1.1")}}})
		p2 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: churnDesired(t, origin, 10)}}})
		if err := c.Apply(p1); err != nil {
			t.Fatal(err)
		}
		reval, err := c.applyPlan(p2, true)
		if err != nil {
			t.Fatal(err)
		}
		if reval != 1 || p2.Status != StatusApplied {
			t.Fatalf("reval=%d status=%s, want 1/applied", reval, p2.Status)
		}
		if got := c.Store().Get(dnswire.MustName(origin)).Serial(); got != 10 {
			t.Fatalf("serial = %d, want 10", got)
		}
	})

	t.Run("explicit-serial-overtaken-conflicts", func(t *testing.T) {
		c := newCtl()
		p2 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: churnDesired(t, origin, 3)}}})
		// Another actor moves the zone past p2's pinned serial.
		p1 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: churnDesired(t, origin, 5)}}})
		if err := c.Apply(p1); err != nil {
			t.Fatal(err)
		}
		reval, err := c.applyPlan(p2, true)
		if err != nil {
			t.Fatal(err)
		}
		if reval != 0 || p2.Status != StatusPartial || p2.Conflicts != 1 {
			t.Fatalf("reval=%d status=%s conflicts=%d, want 0/partial/1", reval, p2.Status, p2.Conflicts)
		}
		if got := c.Store().Get(dnswire.MustName(origin)).Serial(); got != 5 {
			t.Fatalf("serial = %d, want 5 (p2 must not clobber)", got)
		}
	})

	t.Run("moved-delete-still-conflicts", func(t *testing.T) {
		c := newCtl()
		pDel := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin), Delete: true}}})
		p1 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.1.1.1")}}})
		if err := c.Apply(p1); err != nil {
			t.Fatal(err)
		}
		reval, err := c.applyPlan(pDel, true)
		if err != nil {
			t.Fatal(err)
		}
		if reval != 0 || pDel.Status != StatusPartial {
			t.Fatalf("reval=%d status=%s, want 0/partial (delete keeps strict pins)", reval, pDel.Status)
		}
		if c.Store().Get(dnswire.MustName(origin)) == nil {
			t.Fatal("moved delete went through")
		}
	})

	t.Run("serial-apply-keeps-strict-conflicts", func(t *testing.T) {
		c := newCtl()
		p2 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.2.2.2")}}})
		p1 := c.Plan(Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
			Desired: recordsOnly(t, origin, "10.1.1.1")}}})
		if err := c.Apply(p1); err != nil {
			t.Fatal(err)
		}
		// The non-pipelined Apply path: moved serial stays a conflict.
		if err := c.Apply(p2); err != nil {
			t.Fatal(err)
		}
		if p2.Status != StatusPartial || p2.Conflicts != 1 {
			t.Fatalf("status=%s conflicts=%d, want partial/1", p2.Status, p2.Conflicts)
		}
	})
}

// TestReplanSameChangelist: planning never edits the changelist it is given.
// A records-only changelist planned once, then again after another commit
// moved the serial, versions against the serial serving at each plan, and
// its desired zone holds no SOA after either plan or the apply.
func TestReplanSameChangelist(t *testing.T) {
	const origin = "replan.test"
	c := New(zone.NewStore(), Config{})
	seedZone(t, c, origin, 1)
	cl := Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
		Desired: recordsOnly(t, origin, "10.1.1.1")}}}
	desired := cl.Zones[0].Desired
	if p := c.Plan(cl); p.Status != StatusPlanned || p.Zones[0].ToSerial != 2 || desired.SOA() != nil {
		t.Fatalf("first plan: %s %v to=%d; desired SOA %v", p.Status, p.Rejections, p.Zones[0].ToSerial, desired.SOA())
	}
	submitOK(t, c, Changelist{Zones: []ZoneChange{{Origin: dnswire.MustName(origin),
		Desired: churnDesired(t, origin, 5)}}})
	p := c.Plan(cl)
	if p.Status != StatusPlanned || desired.SOA() != nil {
		t.Fatalf("re-plan: %s %v; desired SOA %v", p.Status, p.Rejections, desired.SOA())
	}
	if p.Zones[0].FromSerial != 5 || p.Zones[0].ToSerial != 6 {
		t.Fatalf("re-plan versions %d -> %d, want 5 -> 6", p.Zones[0].FromSerial, p.Zones[0].ToSerial)
	}
	if err := c.Apply(p); err != nil || p.Status != StatusApplied || desired.SOA() != nil {
		t.Fatalf("apply: %v %s; desired SOA %v", err, p.Status, desired.SOA())
	}
	z := c.Store().Get(dnswire.MustName(origin))
	if rr := z.RRset(dnswire.MustName("www."+origin), dnswire.TypeA); z.Serial() != 6 || len(rr) != 1 || rr[0].(*dnswire.A).Addr.String() != "10.1.1.1" {
		t.Fatalf("serving serial %d, www %v; want 6 and 10.1.1.1", z.Serial(), rr)
	}
}

// benchCtlApply measures end-to-end changelist throughput over a seeded
// store: records-only single-zone updates either applied serially
// (SubmitApply: validate and commit on the caller) or through the pipeline
// (validate overlaps the previous changelist's commit).
func benchCtlApply(b *testing.B, pipelined bool) {
	const seedZones = 4096
	store := zone.NewStore()
	c := New(store, Config{})
	var seed Changelist
	for i := 0; i < seedZones; i++ {
		origin := fmt.Sprintf("b%04d.apply.bench", i)
		seed.Zones = append(seed.Zones, ZoneChange{
			Origin:  dnswire.MustName(origin),
			Desired: churnDesired(b, origin, 1),
		})
	}
	if p, err := c.SubmitApply(seed); err != nil || p.Status != StatusApplied {
		b.Fatalf("seed: %v %+v", err, p)
	}
	desired := func(i int) ZoneChange {
		origin := fmt.Sprintf("b%04d.apply.bench", i%seedZones)
		return ZoneChange{
			Origin:  dnswire.MustName(origin),
			Desired: recordsOnly(b, origin, fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if !pipelined {
		for i := 0; i < b.N; i++ {
			p, err := c.SubmitApply(Changelist{Zones: []ZoneChange{desired(i)}})
			if err != nil || (p.Status != StatusApplied && p.Status != StatusPartial) {
				b.Fatalf("apply %d: %v %+v", i, err, p)
			}
		}
		return
	}
	pl := NewPipeline(c, PipelineConfig{})
	defer pl.Close()
	inflight := make(chan *Ticket, 16)
	done := make(chan error, 1)
	go func() {
		for t := range inflight {
			p, err := t.Wait()
			if err == nil && p.Status != StatusApplied && p.Status != StatusPartial {
				err = fmt.Errorf("plan status %s", p.Status)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		t, err := pl.Submit(Changelist{Zones: []ZoneChange{desired(i)}})
		if err != nil {
			b.Fatal(err)
		}
		inflight <- t
	}
	close(inflight)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCtlApplySerial(b *testing.B)    { benchCtlApply(b, false) }
func BenchmarkCtlApplyPipelined(b *testing.B) { benchCtlApply(b, true) }
