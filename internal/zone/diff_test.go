package zone

import (
	"net/netip"
	"slices"
	"testing"

	"akamaidns/internal/dnswire"
)

func zoneV(t *testing.T, serial uint32, extra string) *Zone {
	t.Helper()
	text := `
@    IN SOA ns1 host ( ` + itoa(serial) + ` 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
` + extra
	return MustParseMaster(text, n("ex.test"))
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestDiffEmpty(t *testing.T) {
	a := zoneV(t, 1, "")
	b := zoneV(t, 2, "")
	d := Diff(a, b)
	if !d.Empty() || d.FromSerial != 1 || d.ToSerial != 2 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestDiffAddDelete(t *testing.T) {
	a := zoneV(t, 1, "old IN A 192.0.2.9\n")
	b := zoneV(t, 2, "new IN A 192.0.2.10\nnew2 IN TXT \"x\"\n")
	d := Diff(a, b)
	if len(d.Deleted) != 1 || len(d.Added) != 2 {
		t.Fatalf("delta = %d del / %d add", len(d.Deleted), len(d.Added))
	}
	if d.Deleted[0].Header().Name != n("old.ex.test") {
		t.Fatalf("deleted = %v", d.Deleted[0])
	}
}

func TestApplyRoundTrip(t *testing.T) {
	a := zoneV(t, 1, "old IN A 192.0.2.9\n")
	b := zoneV(t, 2, "new IN A 192.0.2.10\nwww IN AAAA 2001:db8::1\n")
	d := Diff(a, b)
	got, err := Apply(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != 2 {
		t.Fatalf("serial = %d", got.Serial())
	}
	// The applied zone equals b record-for-record.
	if rd := Diff(got, b); !rd.Empty() {
		t.Fatalf("apply diverged: %+v", rd)
	}
}

func TestApplyWrongBase(t *testing.T) {
	a := zoneV(t, 1, "")
	b := zoneV(t, 2, "x IN A 192.0.2.2\n")
	c := zoneV(t, 3, "y IN A 192.0.2.3\n")
	d := Diff(b, c)
	if _, err := Apply(a, d); err == nil {
		t.Fatal("delta applied to wrong base")
	}
	// Deleting a record that is absent also fails.
	d2 := Diff(zoneV(t, 1, "gone IN A 192.0.2.5\n"), b)
	d2.FromSerial = 1
	if _, err := Apply(a, d2); err == nil {
		t.Fatal("delta with missing deletion applied")
	}
	// So does deleting a record base holds twice.
	www := a.RRset(n("www.ex.test"), dnswire.TypeA)
	if _, err := Apply(a, Delta{FromSerial: 1, ToSerial: 2, Deleted: append(www, www...)}); err == nil {
		t.Fatal("delta deleting a record twice applied")
	}
}

// TestApplyKeepsOrder: Apply keeps base's records in base's order and
// appends added ones, so an empty delta re-versions a zone record for
// record; within an RRset that is the order the zone was given.
func TestApplyKeepsOrder(t *testing.T) {
	a := zoneV(t, 1, "multi IN A 192.0.2.9\nmulti IN A 192.0.2.1\n")
	added := &dnswire.A{RRHeader: dnswire.RRHeader{Name: n("multi.ex.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300}, Addr: netip.MustParseAddr("192.0.2.5")}
	b, err := Apply(a, Delta{FromSerial: 1, ToSerial: 2, Added: []dnswire.RR{added}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rr := range b.RRset(n("multi.ex.test"), dnswire.TypeA) {
		got = append(got, rr.(*dnswire.A).Addr.String())
	}
	if want := []string{"192.0.2.9", "192.0.2.1", "192.0.2.5"}; !slices.Equal(got, want) {
		t.Fatalf("multi.ex.test A order %v, want %v", got, want)
	}
}

func TestHistoryDeltas(t *testing.T) {
	h := NewHistory(4)
	v1 := zoneV(t, 1, "")
	v2 := zoneV(t, 2, "a IN A 192.0.2.2\n")
	v3 := zoneV(t, 3, "a IN A 192.0.2.2\nb IN A 192.0.2.3\n")
	h.Record(v1)
	h.Record(v2)
	h.Record(v3)
	if h.Latest(n("ex.test")) != 3 {
		t.Fatalf("latest = %d", h.Latest(n("ex.test")))
	}
	d, st := h.DeltaFrom(n("ex.test"), 1)
	if st != DeltaOK || len(d.Added) != 2 || len(d.Deleted) != 0 || d.ToSerial != 3 {
		t.Fatalf("delta 1->3 = %+v st=%v", d, st)
	}
	d2, st := h.DeltaFrom(n("ex.test"), 2)
	if st != DeltaOK || len(d2.Added) != 1 {
		t.Fatalf("delta 2->3 = %+v", d2)
	}
	// Unknown serial on a known origin: resync signal, not "no history".
	if _, st := h.DeltaFrom(n("ex.test"), 99); st != DeltaResync {
		t.Fatalf("unknown serial: st=%v, want resync", st)
	}
	if _, st := h.DeltaFrom(n("other.test"), 1); st != DeltaNoHistory {
		t.Fatalf("unknown origin: st=%v, want no-history", st)
	}
}

func TestHistoryEviction(t *testing.T) {
	h := NewHistory(2)
	for s := uint32(1); s <= 5; s++ {
		h.Record(zoneV(t, s, ""))
	}
	if _, st := h.DeltaFrom(n("ex.test"), 1); st != DeltaResync {
		t.Fatalf("evicted version: st=%v, want resync", st)
	}
	if _, st := h.DeltaFrom(n("ex.test"), 4); st != DeltaOK {
		t.Fatalf("retained version not served: st=%v", st)
	}
}

func TestHistoryRecordSameSerialReplaces(t *testing.T) {
	h := NewHistory(4)
	h.Record(zoneV(t, 1, ""))
	h.Record(zoneV(t, 1, "x IN A 192.0.2.9\n"))
	d, st := h.DeltaFrom(n("ex.test"), 1)
	if st != DeltaOK || !d.Empty() {
		t.Fatalf("same-serial re-record: %+v st=%v", d, st)
	}
	// The replacement (with x) is the retained version.
	h.Record(zoneV(t, 2, ""))
	d2, _ := h.DeltaFrom(n("ex.test"), 1)
	if len(d2.Deleted) != 1 {
		t.Fatalf("delta from replaced version: %+v", d2)
	}
}

// TestRecordPublishes: History.Record keeps the zone it is given, copying
// nothing, and serves deltas from it; the next version is a new zone, and
// the one recorded before it is left as it was.
func TestRecordPublishes(t *testing.T) {
	h := NewHistory(4)
	z := zoneV(t, 1, "")
	h.Record(z)
	if h.Version(n("ex.test"), 1) != z {
		t.Fatal("Record kept a copy, not the zone")
	}
	late := &dnswire.TXT{RRHeader: dnswire.RRHeader{Name: n("late.ex.test"), Type: dnswire.TypeTXT, Class: dnswire.ClassINET, TTL: 60}, Texts: []string{"x"}}
	next, err := Apply(z, Delta{FromSerial: 1, ToSerial: 2, Added: []dnswire.RR{late}})
	if err != nil {
		t.Fatal(err)
	}
	h.Record(next)
	d, st := h.DeltaFrom(n("ex.test"), 1)
	if st != DeltaOK || len(d.Added) != 1 || len(d.Deleted) != 0 || z.NumRecords() != 4 {
		t.Fatalf("delta 1->2 = %+v st=%v; version 1 holds %d records", d, st, z.NumRecords())
	}
}

func TestNewHistoryClampsKeep(t *testing.T) {
	for _, keep := range []int{-5, -1, 0, 1} {
		h := NewHistory(keep)
		if h.Keep != 2 {
			t.Fatalf("NewHistory(%d).Keep = %d, want 2", keep, h.Keep)
		}
		// A clamped history must still serve one delta step.
		h.Record(zoneV(t, 1, ""))
		h.Record(zoneV(t, 2, "a IN A 192.0.2.2\n"))
		if d, st := h.DeltaFrom(n("ex.test"), 1); st != DeltaOK || len(d.Added) != 1 {
			t.Fatalf("NewHistory(%d) delta 1->2: %+v st=%v", keep, d, st)
		}
	}
	if h := NewHistory(8); h.Keep != 8 {
		t.Fatalf("NewHistory(8).Keep = %d", h.Keep)
	}
}

func TestDeltaFromAheadOfLatest(t *testing.T) {
	// A client claiming a serial newer than anything retained is out of
	// sync (e.g. the controller was rebuilt); that is a resync, not OK.
	h := NewHistory(4)
	h.Record(zoneV(t, 5, ""))
	if _, st := h.DeltaFrom(n("ex.test"), 9); st != DeltaResync {
		t.Fatalf("ahead-of-latest serial: st=%v, want resync", st)
	}
}

func TestDeltaStatusString(t *testing.T) {
	cases := map[DeltaStatus]string{DeltaOK: "ok", DeltaNoHistory: "no-history", DeltaResync: "resync", DeltaStatus(42): "DeltaStatus(42)"}
	for st, want := range cases {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
}
