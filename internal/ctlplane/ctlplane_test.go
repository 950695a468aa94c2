package ctlplane

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// masterText renders a minimal zone: SOA at the given serial plus extra
// master-file lines.
func masterText(serial uint32, extra string) string {
	return fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 192.0.2.10
%s`, serial, extra)
}

func testZone(t testing.TB, origin string, serial uint32, extra string) *zone.Zone {
	t.Helper()
	return zone.MustParseMaster(masterText(serial, extra), dnswire.MustName(origin))
}

// noSOAZone builds a desired state carrying records only (the
// platform-versions-it workflow).
func noSOAZone(t testing.TB, origin string, lines string) *zone.Zone {
	t.Helper()
	return zone.MustParseMaster("$TTL 300\n"+lines, dnswire.MustName(origin))
}

func newTestController(t testing.TB) *Controller {
	t.Helper()
	return New(zone.NewStore(), Config{})
}

func submitOK(t *testing.T, c *Controller, cl Changelist) *Plan {
	t.Helper()
	p, err := c.SubmitApply(cl)
	if err != nil {
		t.Fatalf("SubmitApply: %v", err)
	}
	if p.Status == StatusRejected {
		t.Fatalf("changelist rejected: %v", p.Rejections)
	}
	return p
}

func TestLifecycleCreateUpdateDelete(t *testing.T) {
	c := newTestController(t)
	origin := dnswire.MustName("ex.test")

	// Create.
	p := submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "ex.test", 5, "api IN A 192.0.2.11")},
	}})
	if p.Status != StatusApplied || len(p.Zones) != 1 || p.Zones[0].Op != OpCreate {
		t.Fatalf("create plan = %+v", p)
	}
	if p.Zones[0].ToSerial != 5 {
		t.Fatalf("create ToSerial = %d, want 5", p.Zones[0].ToSerial)
	}
	z := c.Store().Get(origin)
	if z == nil || z.Serial() != 5 {
		t.Fatalf("zone not serving at serial 5 after create")
	}

	// Fixed point: resubmitting the identical desired state plans nothing.
	p = submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "ex.test", 5, "api IN A 192.0.2.11")},
	}})
	if len(p.Zones) != 0 || p.NoOps != 1 {
		t.Fatalf("identical resubmit: plan not empty (%d zones, %d noops)", len(p.Zones), p.NoOps)
	}

	// Update without SOA: serving SOA carried forward at serial+1.
	p = submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: noSOAZone(t, "ex.test",
			"www IN A 192.0.2.10\napi IN A 192.0.2.99")},
	}})
	if len(p.Zones) != 1 || p.Zones[0].Op != OpUpdate {
		t.Fatalf("update plan = %+v", p)
	}
	if p.Zones[0].FromSerial != 5 || p.Zones[0].ToSerial != 6 {
		t.Fatalf("update serials = %d→%d, want 5→6", p.Zones[0].FromSerial, p.Zones[0].ToSerial)
	}
	if got := c.Store().Get(origin).Serial(); got != 6 {
		t.Fatalf("serving serial after inherit-update = %d, want 6", got)
	}
	// The one changed RRset is api/A, rewritten in place.
	if n := len(p.Zones[0].Changes); n != 1 {
		t.Fatalf("update changed %d RRsets, want 1: %+v", n, p.Zones[0].Changes)
	}
	if ch := p.Zones[0].Changes[0]; ch.Op != OpUpdate || ch.Added != 1 || ch.Deleted != 1 {
		t.Fatalf("RRset change = %+v, want update +1/-1", ch)
	}

	// Explicit-serial update must advance past serving.
	p, _ = c.SubmitApply(Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "ex.test", 6, "api IN A 192.0.2.123")},
	}})
	if p.Status != StatusRejected || p.Rejections[0].Reason != "serial-not-monotonic" {
		t.Fatalf("stale serial not rejected: %+v", p)
	}
	if got := c.Store().Get(origin).Serial(); got != 6 {
		t.Fatalf("rejected plan changed serving state: serial %d", got)
	}

	// Delete.
	p = submitOK(t, c, Changelist{Zones: []ZoneChange{{Origin: origin, Delete: true}}})
	if len(p.Zones) != 1 || p.Zones[0].Op != OpDelete {
		t.Fatalf("delete plan = %+v", p)
	}
	if c.Store().Get(origin) != nil {
		t.Fatal("zone still serving after delete")
	}
	// Deleting an absent zone is already reconciled.
	p = submitOK(t, c, Changelist{Zones: []ZoneChange{{Origin: origin, Delete: true}}})
	if len(p.Zones) != 0 || p.NoOps != 1 {
		t.Fatalf("delete-absent: plan not a no-op: %+v", p)
	}
}

func TestRejectionGatesWholeChangelist(t *testing.T) {
	c := newTestController(t)
	good := dnswire.MustName("good.test")
	bad := dnswire.MustName("bad.test")
	p, _ := c.SubmitApply(Changelist{Zones: []ZoneChange{
		{Origin: good, Desired: testZone(t, "good.test", 1, "")},
		{Origin: bad, Desired: noSOAZone(t, "bad.test", "www IN A 192.0.2.1")}, // create needs SOA
	}})
	if p.Status != StatusRejected {
		t.Fatalf("plan status = %s, want rejected", p.Status)
	}
	if len(p.Zones) != 0 {
		t.Fatal("rejected plan still carries appliable zones")
	}
	if c.Store().Len() != 0 {
		t.Fatal("rejection gate leaked: good.test was installed")
	}
	if err := c.Apply(p); err == nil {
		t.Fatal("Apply accepted a rejected plan")
	}
}

func TestValidationGate(t *testing.T) {
	cases := []struct {
		name   string
		zone   string
		reason string
	}{
		{"cname-at-apex", "@ IN CNAME www.other.test\n", "cname-at-apex"},
		{"cname-conflict", "a IN CNAME www\na IN A 192.0.2.1\n", "cname-conflict"},
		{"cname-multiple", "a IN CNAME one\na IN CNAME two\n", "cname-multiple"},
		{"missing-glue", "sub IN NS ns.sub\n", "missing-glue"},
		{"dangling-ns", "sub IN NS elsewhere\n", "dangling-ns"},
		{"occluded-data", "sub IN NS ns.sub\nns.sub IN A 192.0.2.1\ndeep.sub IN A 192.0.2.2\n", "occluded-data"},
		{"non-ns-at-cut", "sub IN NS ns.sub\nns.sub IN A 192.0.2.1\nsub IN TXT \"x\"\n", "occluded-data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestController(t)
			p, _ := c.SubmitApply(Changelist{Zones: []ZoneChange{{
				Origin:  dnswire.MustName("v.test"),
				Desired: testZone(t, "v.test", 1, tc.zone),
			}}})
			if p.Status != StatusRejected {
				t.Fatalf("invalid zone accepted: %+v", p)
			}
			found := false
			for _, r := range p.Rejections {
				if r.Reason == tc.reason {
					found = true
				}
			}
			if !found {
				t.Fatalf("rejections %v missing reason %q", p.Rejections, tc.reason)
			}
		})
	}

	// A well-formed delegation with glue must pass.
	c := newTestController(t)
	p := submitOK(t, c, Changelist{Zones: []ZoneChange{{
		Origin: dnswire.MustName("v.test"),
		Desired: testZone(t, "v.test", 1,
			"sub IN NS ns.sub\nns.sub IN A 192.0.2.53\nother IN NS www\n"),
	}}})
	if p.Status != StatusApplied {
		t.Fatalf("valid delegation rejected: %+v", p.Rejections)
	}
}

func TestDuplicateOriginRejected(t *testing.T) {
	c := newTestController(t)
	origin := dnswire.MustName("dup.test")
	p, _ := c.SubmitApply(Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "dup.test", 1, "")},
		{Origin: origin, Desired: testZone(t, "dup.test", 2, "")},
	}})
	if p.Status != StatusRejected || p.Rejections[0].Reason != "duplicate-origin" {
		t.Fatalf("duplicate origin not rejected: %+v", p)
	}
}

func TestApplyConflictSkipsZone(t *testing.T) {
	c := newTestController(t)
	origin := dnswire.MustName("c.test")
	other := dnswire.MustName("other.test")
	submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "c.test", 1, "")},
		{Origin: other, Desired: testZone(t, "other.test", 1, "")},
	}})

	// Plan against serial 1, then move the zone before applying.
	p := c.Plan(Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "c.test", 7, "api IN A 192.0.2.1")},
		{Origin: other, Desired: testZone(t, "other.test", 2, "api IN A 192.0.2.2")},
	}})
	if p.Status != StatusPlanned {
		t.Fatalf("plan status = %s: %+v", p.Status, p.Rejections)
	}
	submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "c.test", 3, "x IN A 192.0.2.3")},
	}})
	if err := c.Apply(p); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if p.Status != StatusPartial || p.Conflicts != 1 {
		t.Fatalf("plan after conflicted apply = %s/%d conflicts", p.Status, p.Conflicts)
	}
	// The moved zone kept its out-of-band state; the untouched one applied.
	if got := c.Store().Get(origin).Serial(); got != 3 {
		t.Fatalf("conflicted zone serial = %d, want 3 (out-of-band state)", got)
	}
	if got := c.Store().Get(other).Serial(); got != 2 {
		t.Fatalf("clean zone serial = %d, want 2", got)
	}
	// A plan applies at most once.
	if err := c.Apply(p); err == nil {
		t.Fatal("double Apply accepted")
	}
}

// TestApplyCatchesSameSerialSwap: a plan pins the zone version it was
// computed against, not the version's serial. Another writer swapping in
// different content at the same serial moves the pin: a strict apply skips
// the zone as a conflict, and a pipelined one re-diffs the plan against the
// version now serving.
func TestApplyCatchesSameSerialSwap(t *testing.T) {
	origin := dnswire.MustName("swap.test")
	other := dnswire.MustName("other.swap.test")
	planThenSwap := func(t *testing.T) (*Controller, *Plan) {
		c := newTestController(t)
		submitOK(t, c, Changelist{Zones: []ZoneChange{{Origin: origin, Desired: testZone(t, "swap.test", 1, "")}}})
		p := c.Plan(Changelist{Zones: []ZoneChange{
			{Origin: origin, Desired: testZone(t, "swap.test", 2, "api IN A 192.0.2.1")},
		}})
		if p.Status != StatusPlanned {
			t.Fatalf("plan status = %s: %+v", p.Status, p.Rejections)
		}
		c.Store().Put(testZone(t, "swap.test", 1, "other IN A 192.0.2.9"))
		return c, p
	}

	t.Run("strict", func(t *testing.T) {
		c, p := planThenSwap(t)
		if err := c.Apply(p); err != nil {
			t.Fatal(err)
		}
		if p.Status != StatusPartial || p.Conflicts != 1 || !p.Zones[0].Conflict {
			t.Fatalf("status=%s conflicts=%d conflict=%v, want partial/1/true", p.Status, p.Conflicts, p.Zones[0].Conflict)
		}
		if rr := c.Store().Get(origin).RRset(other, dnswire.TypeA); len(rr) != 1 {
			t.Fatalf("the other writer's version was clobbered: other/A = %v", rr)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		c, p := planThenSwap(t)
		reval, err := c.applyPlan(p, true)
		if err != nil {
			t.Fatal(err)
		}
		zp := p.Zones[0]
		if reval != 1 || p.Status != StatusApplied || !zp.Revalidated {
			t.Fatalf("reval=%d status=%s revalidated=%v, want 1/applied/true", reval, p.Status, zp.Revalidated)
		}
		deletesOther := false
		for _, ch := range zp.Changes {
			deletesOther = deletesOther || (ch.Name == other && ch.Op == OpDelete)
		}
		if !deletesOther {
			t.Fatalf("changes not re-diffed against the swapped-in version: %+v", zp.Changes)
		}
		if got := c.Store().Get(origin).Serial(); got != 2 {
			t.Fatalf("serial = %d, want 2", got)
		}
	})
}

func TestApplyBatchSingleRebuild(t *testing.T) {
	c := newTestController(t)
	const n = 50
	var cl Changelist
	for i := 0; i < n; i++ {
		origin := fmt.Sprintf("z%02d.batch.test", i)
		cl.Zones = append(cl.Zones, ZoneChange{
			Origin:  dnswire.MustName(origin),
			Desired: testZone(t, origin, 1, ""),
		})
	}
	r0 := c.Store().Gen()
	submitOK(t, c, cl)
	if got := c.Store().Gen() - r0; got != 1 {
		t.Fatalf("%d-zone apply rebuilt the router %d times, want 1", n, got)
	}
}

func TestPublishAndHistory(t *testing.T) {
	store := zone.NewStore()
	hist := zone.NewHistory(4)
	type pub struct {
		origin dnswire.Name
		serial uint32
	}
	var pubs []pub
	c := New(store, Config{
		History: hist,
		Publish: func(o dnswire.Name, s uint32) { pubs = append(pubs, pub{o, s}) },
	})
	origin := dnswire.MustName("p.test")
	p, err := c.SubmitApply(Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "p.test", 1, "")},
	}})
	if err != nil || p.Status != StatusApplied {
		t.Fatalf("create: %v %+v", err, p)
	}
	p, err = c.SubmitApply(Changelist{Zones: []ZoneChange{
		{Origin: origin, Desired: testZone(t, "p.test", 2, "api IN A 192.0.2.9")},
	}})
	if err != nil || p.Status != StatusApplied {
		t.Fatalf("update: %v %+v", err, p)
	}
	if len(pubs) != 2 || pubs[0] != (pub{origin, 1}) || pubs[1] != (pub{origin, 2}) {
		t.Fatalf("publish hook calls = %+v", pubs)
	}
	// IXFR history can reconstruct the increment between applied versions.
	delta, st := hist.DeltaFrom(origin, 1)
	if st != zone.DeltaOK {
		t.Fatalf("history has no delta from serial 1: %v", st)
	}
	if delta.ToSerial != 2 || len(delta.Added) != 1 {
		t.Fatalf("delta = %+v, want 1 added record to serial 2", delta)
	}
}

func TestPlanRetention(t *testing.T) {
	c := New(zone.NewStore(), Config{MaxPlans: 3})
	var first *Plan
	for i := 0; i < 5; i++ {
		p := c.Plan(Changelist{})
		if first == nil {
			first = p
		}
	}
	if c.Get(first.ID) != nil {
		t.Fatal("oldest plan not evicted at MaxPlans")
	}
	latest := c.Latest()
	if latest == nil || c.Get(latest.ID) != latest {
		t.Fatal("latest plan not retrievable")
	}
}

func TestStatusCounters(t *testing.T) {
	c := newTestController(t)
	submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: dnswire.MustName("s.test"), Desired: testZone(t, "s.test", 1, "")},
	}})
	c.SubmitApply(Changelist{Zones: []ZoneChange{
		{Origin: dnswire.MustName("s.test"), Desired: noSOAZone(t, "s.test", "bad IN CNAME x\nbad IN A 192.0.2.1\n")},
	}})
	st := c.StatusNow()
	if st.PlansApplied != 1 || st.PlansRejected != 1 || st.ZonesServing != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestChangelistTooLarge(t *testing.T) {
	c := New(zone.NewStore(), Config{MaxZones: 2})
	var cl Changelist
	for i := 0; i < 3; i++ {
		cl.Zones = append(cl.Zones, ZoneChange{Origin: dnswire.MustName(fmt.Sprintf("z%d.test", i)), Delete: true})
	}
	p, _ := c.SubmitApply(cl)
	if p.Status != StatusRejected || !strings.Contains(p.Rejections[0].Reason, "too-large") {
		t.Fatalf("oversized changelist not rejected: %+v", p)
	}
}

// TestPublishOrderingUnderRace pins the contract the propagation plane
// depends on: by the time the Publish hook fires for (origin, serial), the
// store already serves that serial (or newer) and the IXFR history has
// recorded it. A subscriber racing against SubmitApply — the notify→pull
// path — must never observe the hook ahead of either commit. Run under
// -race this also proves the hook itself is safe to call into from the
// apply path while readers are live.
func TestPublishOrderingUnderRace(t *testing.T) {
	store := zone.NewStore()
	hist := zone.NewHistory(64)
	type note struct {
		origin dnswire.Name
		serial uint32
	}
	notes := make(chan note, 4096)
	c := New(store, Config{
		History: hist,
		Publish: func(o dnswire.Name, s uint32) { notes <- note{o, s} },
	})

	var sub sync.WaitGroup
	sub.Add(1)
	go func() {
		defer sub.Done()
		for n := range notes {
			if z := store.Get(n.origin); z == nil || z.Serial() < n.serial {
				t.Errorf("publish(%s, %d) fired before the store commit", n.origin, n.serial)
			}
			if got := hist.Latest(n.origin); got < n.serial {
				t.Errorf("publish(%s, %d) fired before the history record (latest %d)", n.origin, n.serial, got)
			}
		}
	}()

	var appliers sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		appliers.Add(1)
		go func() {
			defer appliers.Done()
			name := fmt.Sprintf("pub%d.test", g)
			for s := uint32(1); s <= 50; s++ {
				p, err := c.SubmitApply(Changelist{Zones: []ZoneChange{
					{Origin: dnswire.MustName(name), Desired: testZone(t, name, s, fmt.Sprintf("r%d IN A 192.0.2.9", s))},
				}})
				if err != nil || p.Status != StatusApplied {
					t.Errorf("apply %s serial %d: err=%v plan=%+v", name, s, err, p)
					return
				}
			}
		}()
	}
	appliers.Wait()
	close(notes)
	sub.Wait()
}

// TestHistoryRecordsInInstallOrder holds two concurrent applies of
// successive serials of one origin to the install order. The first apply
// installs x.test and y.test at serial 2; while it publishes x.test, a
// second apply installs y.test at serial 3 and returns. Each apply records
// its versions where it installs them, so the history's newest y.test is
// the one the store serves, not the first apply's late record.
func TestHistoryRecordsInInstallOrder(t *testing.T) {
	store := zone.NewStore()
	hist := zone.NewHistory(8)
	var c *Controller
	var once sync.Once
	c = New(store, Config{
		History: hist,
		Publish: func(o dnswire.Name, _ uint32) {
			if o != dnswire.MustName("x.test") {
				return
			}
			once.Do(func() {
				done := make(chan struct{})
				go func() {
					defer close(done)
					submitOK(t, c, Changelist{Zones: []ZoneChange{
						{Origin: dnswire.MustName("y.test"), Desired: testZone(t, "y.test", 3, "")},
					}})
				}()
				<-done
			})
		},
	})
	submitOK(t, c, Changelist{Zones: []ZoneChange{
		{Origin: dnswire.MustName("x.test"), Desired: testZone(t, "x.test", 2, "")},
		{Origin: dnswire.MustName("y.test"), Desired: testZone(t, "y.test", 2, "")},
	}})
	y := dnswire.MustName("y.test")
	if got, want := hist.Latest(y), store.Get(y).Serial(); got != want || want != 3 {
		t.Fatalf("history's newest y.test serial %d, store serves %d (want 3)", got, want)
	}
}
