package netserve

import (
	"net/netip"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/zone"
)

// primarySecondaryRig starts a primary serving ex.test and a secondary
// replicating from it over real sockets.
type rig struct {
	primary   *Server
	secondary *Server
	sec       *Secondary
	priStore  *zone.Store
	secStore  *zone.Store
}

func newRig(t *testing.T) *rig {
	t.Helper()
	priStore := zone.NewStore()
	priStore.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	primary := New(DefaultConfig(), nameserver.NewEngine(priStore), nil)
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)

	secStore := zone.NewStore()
	sec := NewSecondary(secStore, dnswire.MustName("ex.test"), primary.TCPAddrActual())
	sec.MinInterval = 50 * time.Millisecond
	secondary := New(DefaultConfig(), nameserver.NewEngine(secStore), nil)
	secondary.OnNotify = func(origin dnswire.Name) {
		if origin == sec.Origin {
			sec.Notify()
		}
	}
	if err := secondary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(secondary.Close)
	return &rig{primary: primary, secondary: secondary, sec: sec, priStore: priStore, secStore: secStore}
}

func TestSecondaryInitialTransfer(t *testing.T) {
	r := newRig(t)
	if d := r.sec.RefreshOnce(); d <= 0 {
		t.Fatalf("refresh interval %v", d)
	}
	if r.sec.Serial() != 7 {
		t.Fatalf("secondary serial = %d, want 7", r.sec.Serial())
	}
	// The secondary now answers authoritatively over its own socket.
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	resp, err := Exchange(r.secondary.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Authoritative || len(resp.Answers) != 1 {
		t.Fatalf("secondary answer = %v", resp)
	}
	if err := r.sec.Stats().LastErr; err != nil {
		t.Fatalf("LastErr = %v", err)
	}
}

func TestSecondarySkipsWhenSerialUnchanged(t *testing.T) {
	r := newRig(t)
	r.sec.RefreshOnce()
	before := r.sec.Stats().Transfers
	r.sec.RefreshOnce()
	st := r.sec.Stats()
	if st.Transfers != before {
		t.Fatal("transferred despite unchanged serial")
	}
	if st.Polls != 2 {
		t.Fatalf("polls = %d", st.Polls)
	}
}

func TestSecondaryPicksUpUpdates(t *testing.T) {
	r := newRig(t)
	r.sec.RefreshOnce()
	// Update the primary: a version with one more record, at serial 8.
	putNext(t, r.priStore, zone.Delta{ToSerial: 8, Added: []dnswire.RR{&dnswire.A{
		RRHeader: dnswire.RRHeader{Name: dnswire.MustName("new.ex.test"), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
		Addr:     netip.MustParseAddr("192.0.2.99"),
	}}})
	r.sec.RefreshOnce()
	if r.sec.Serial() != 8 {
		t.Fatalf("secondary serial = %d, want 8", r.sec.Serial())
	}
	got := r.secStore.Get(dnswire.MustName("ex.test")).View().Lookup(dnswire.MustName("new.ex.test"), dnswire.TypeA)
	if got.Result != zone.Success {
		t.Fatal("new record missing on secondary")
	}
}

func TestSecondaryNotifyTriggersRefresh(t *testing.T) {
	r := newRig(t)
	r.sec.RefreshOnce()
	r.sec.Start()
	defer r.sec.Stop()
	// Update primary and NOTIFY the secondary's server socket.
	putNext(t, r.priStore, zone.Delta{ToSerial: 9})
	if err := SendNotify(r.secondary.UDPAddrActual(), dnswire.MustName("ex.test"), time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.sec.Serial() != 9 {
		if time.Now().After(deadline) {
			t.Fatalf("secondary never refreshed after NOTIFY (serial %d)", r.sec.Serial())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSecondaryRetryOnDeadPrimary(t *testing.T) {
	store := zone.NewStore()
	sec := NewSecondary(store, dnswire.MustName("ex.test"), "127.0.0.1:1") // nothing there
	sec.Timeout = 200 * time.Millisecond
	d := sec.RefreshOnce()
	if sec.Stats().LastErr == nil {
		t.Fatal("no error recorded for dead primary")
	}
	if d <= 0 {
		t.Fatalf("retry interval %v", d)
	}
}

func TestSecondaryStartStopIdempotent(t *testing.T) {
	r := newRig(t)
	r.sec.Start()
	r.sec.Start()
	r.sec.Stop()
	r.sec.Stop()
}

// TestSecondaryStatsWhileRefreshing reads the counters while the refresh
// loop writes them (run under -race): every snapshot is whole, and the
// counters only grow.
func TestSecondaryStatsWhileRefreshing(t *testing.T) {
	r := newRig(t)
	r.sec.MinInterval = time.Millisecond
	r.sec.Start()
	defer r.sec.Stop()
	var last SecondaryStats
	deadline := time.Now().Add(5 * time.Second)
	for serial := uint32(8); last.Transfers < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("refresh loop stalled at %+v", last)
		}
		if r.sec.Serial() == serial-1 {
			putNext(t, r.priStore, zone.Delta{ToSerial: serial})
			serial++
		}
		r.sec.Notify()
		st := r.sec.Stats()
		if st.Polls < last.Polls || st.Transfers < last.Transfers || st.Transfers > st.Polls {
			t.Fatalf("stats went from %+v to %+v", last, st)
		}
		last = st
	}
	if last.LastErr != nil {
		t.Fatalf("LastErr = %v", last.LastErr)
	}
}
