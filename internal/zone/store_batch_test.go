package zone

import (
	"fmt"
	"testing"

	"akamaidns/internal/dnswire"
)

func batchZone(t testing.TB, i int, serial uint32) *Zone {
	t.Helper()
	origin := dnswire.MustName(fmt.Sprintf("z%03d.batch.test", i))
	text := fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 192.0.2.%d
`, serial, 1+i%250)
	return MustParseMaster(text, origin)
}

// TestUpdateBatchSingleRebuild is the rebuild-storm regression: installing N
// zones through one Update batch must rebuild the suffix router exactly
// once and bump the generation exactly once, not once per zone.
func TestUpdateBatchSingleRebuild(t *testing.T) {
	s := NewStore()
	const n = 64
	rebuilds0, gen0 := s.Gen(), s.Gen()
	s.Update(func(tx *Tx) {
		for i := 0; i < n; i++ {
			tx.Put(batchZone(t, i, 1))
		}
	})
	if got := s.Gen() - rebuilds0; got != 1 {
		t.Fatalf("batch install of %d zones rebuilt the router %d times, want 1", n, got)
	}
	if got := s.Gen() - gen0; got != 1 {
		t.Fatalf("batch install of %d zones bumped the generation %d times, want 1", n, got)
	}
	// Every zone must be routable after the single rebuild.
	for i := 0; i < n; i++ {
		name := dnswire.MustName(fmt.Sprintf("www.z%03d.batch.test", i))
		if z := s.Find(name); z == nil {
			t.Fatalf("zone %d not routable after batch install", i)
		}
	}
}

// TestDeleteBatchSingleRebuild pins the Delete-path fix: removing N zones in
// one batch must not rebuild the router per Delete call.
func TestDeleteBatchSingleRebuild(t *testing.T) {
	s := NewStore()
	const n = 64
	s.Update(func(tx *Tx) {
		for i := 0; i < n; i++ {
			tx.Put(batchZone(t, i, 1))
		}
	})
	rebuilds0, gen0 := s.Gen(), s.Gen()
	s.Update(func(tx *Tx) {
		for i := 0; i < n; i++ {
			if !tx.Delete(dnswire.MustName(fmt.Sprintf("z%03d.batch.test", i))) {
				t.Fatalf("zone %d missing at delete", i)
			}
		}
	})
	if got := s.Gen() - rebuilds0; got != 1 {
		t.Fatalf("batch delete of %d zones rebuilt the router %d times, want 1", n, got)
	}
	if got := s.Gen() - gen0; got != 1 {
		t.Fatalf("batch delete of %d zones bumped the generation %d times, want 1", n, got)
	}
	if s.Len() != 0 {
		t.Fatalf("%d zones left after batch delete", s.Len())
	}
	if z := s.Find(dnswire.MustName("www.z000.batch.test")); z != nil {
		t.Fatal("deleted zone still routable")
	}
}

// TestUpdateBatchMixed replaces, creates, and deletes in one batch and
// checks the router lands on exactly the surviving set.
func TestUpdateBatchMixed(t *testing.T) {
	s := NewStore()
	s.Update(func(tx *Tx) {
		for i := 0; i < 8; i++ {
			tx.Put(batchZone(t, i, 1))
		}
	})
	rebuilds0 := s.Gen()
	s.Update(func(tx *Tx) {
		tx.Put(batchZone(t, 0, 2)) // replace
		tx.Put(batchZone(t, 8, 1)) // create
		tx.Delete(dnswire.MustName("z001.batch.test"))
		if tx.Get(dnswire.MustName("z008.batch.test")) == nil {
			t.Error("batch-installed zone not visible inside the same Tx")
		}
	})
	if got := s.Gen() - rebuilds0; got != 1 {
		t.Fatalf("mixed batch rebuilt %d times, want 1", got)
	}
	if z := s.Get(dnswire.MustName("z000.batch.test")); z == nil || z.Serial() != 2 {
		t.Fatalf("replaced zone serial = %v, want 2", z)
	}
	if s.Find(dnswire.MustName("www.z001.batch.test")) != nil {
		t.Fatal("deleted zone still routable")
	}
	if s.Find(dnswire.MustName("www.z008.batch.test")) == nil {
		t.Fatal("created zone not routable")
	}
}

// TestUpdateNoMutationNoRebuild: a read-only Update (or one that only
// deletes absent zones) must not rebuild or bump anything.
func TestUpdateNoMutationNoRebuild(t *testing.T) {
	s := NewStore()
	s.Put(batchZone(t, 0, 1))
	rebuilds0, gen0 := s.Gen(), s.Gen()
	s.Update(func(tx *Tx) {
		_ = tx.Get(dnswire.MustName("z000.batch.test"))
		if tx.Delete(dnswire.MustName("absent.batch.test")) {
			t.Error("deleted a zone that does not exist")
		}
	})
	if s.Gen() != rebuilds0 || s.Gen() != gen0 {
		t.Fatalf("no-op Update rebuilt the router or bumped the generation")
	}
}

// TestSingleOpsStillRebuildImmediately documents the non-batched contract:
// a bare Put or Delete publishes its router change before returning.
func TestSingleOpsStillRebuildImmediately(t *testing.T) {
	s := NewStore()
	r0 := s.Gen()
	s.Put(batchZone(t, 0, 1))
	if s.Gen() != r0+1 {
		t.Fatal("Put did not rebuild the router")
	}
	if s.Find(dnswire.MustName("www.z000.batch.test")) == nil {
		t.Fatal("Put not visible to Find immediately")
	}
	s.Delete(dnswire.MustName("z000.batch.test"))
	if s.Gen() != r0+2 {
		t.Fatal("Delete did not rebuild the router")
	}
	if s.Find(dnswire.MustName("www.z000.batch.test")) != nil {
		t.Fatal("Delete not visible to Find immediately")
	}
}
