package netserve

import (
	"fmt"
	"testing"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/zone"
)

// Churn-active benchmarks: the handle path measured while a control-plane
// apply stream rewrites other zones in the same store. The acceptance bar
// is that churn elsewhere costs the hot path nothing: an untouched zone
// keeps its version through every apply, so its compiled view survives and
// its packed-response cache entries stay filed under the version that still
// routes their names. Applies run inside
// StopTimer/StartTimer windows, so the benchmark isolates the *served*
// cost of churn (invalidation fallout), not the apply work itself.

const (
	churnBenchZones = 128  // zones being churned alongside ex.test
	churnBatchSize  = 32   // zones rewritten per apply batch
	churnApplyEvery = 2048 // handle iterations between apply batches
)

func churnZoneDesired(b *testing.B, i int, serial uint32) *zone.Zone {
	b.Helper()
	origin := dnswire.MustName(fmt.Sprintf("c%03d.churn.bench", i))
	text := fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 10.9.%d.%d
`, serial, byte(serial>>8), byte(serial))
	return zone.MustParseMaster(text, origin)
}

// churnBenchServer builds a socket-less server whose store also carries
// churnBenchZones control-plane-managed zones, plus the controller that
// churns them.
func churnBenchServer(b *testing.B) (*Server, *ctlplane.Controller) {
	b.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	ctl := ctlplane.New(store, ctlplane.Config{})
	var seed ctlplane.Changelist
	for i := 0; i < churnBenchZones; i++ {
		seed.Zones = append(seed.Zones, ctlplane.ZoneChange{
			Origin:  churnZoneDesired(b, i, 1).Origin(),
			Desired: churnZoneDesired(b, i, 1),
		})
	}
	if p, err := ctl.SubmitApply(seed); err != nil || p.Status != ctlplane.StatusApplied {
		b.Fatalf("seed churn zones: %v %+v", err, p)
	}
	srv := New(DefaultConfig(), nameserver.NewEngine(store), nil)
	return srv, ctl
}

// applyChurnBatch rewrites the first churnBatchSize churn zones at the next
// serial through the full plan/validate/apply pipeline.
func applyChurnBatch(b *testing.B, ctl *ctlplane.Controller, serial uint32) {
	b.Helper()
	var cl ctlplane.Changelist
	for i := 0; i < churnBatchSize; i++ {
		cl.Zones = append(cl.Zones, ctlplane.ZoneChange{
			Origin:  churnZoneDesired(b, i, serial).Origin(),
			Desired: churnZoneDesired(b, i, serial),
		})
	}
	p, err := ctl.SubmitApply(cl)
	if err != nil || p.Status != ctlplane.StatusApplied {
		b.Fatalf("churn apply at serial %d: %v %+v", serial, err, p)
	}
}

// benchHandleChurn is benchHandle with an apply batch interleaved every
// churnApplyEvery iterations (excluded from timing and allocation
// accounting via StopTimer), so allocs/op reflects only what churn costs
// the handle path.
func benchHandleChurn(b *testing.B, srv *Server, ctl *ctlplane.Controller, wire []byte, unique bool) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var label []byte
	if unique {
		label = wire[13 : 13+16]
	}
	serial := uint32(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%churnApplyEvery == churnApplyEvery-1 {
			b.StopTimer()
			serial++
			applyChurnBatch(b, ctl, serial)
			b.StartTimer()
		}
		if unique {
			v := uint64(i)
			for j := 0; j < 16; j++ {
				label[j] = "0123456789abcdef"[v&0xF]
				v >>= 4
			}
		}
		if out := srv.handlePacket(wire, benchSrc, false, sc); out == nil {
			b.Fatal("no response")
		}
	}
}

// BenchmarkHandleUDPChurnHit: the cached-answer path for an untouched zone
// while 32-zone apply batches land around it. Must stay 0 allocs/op, and
// every iteration after the first is a hit: no apply moves ex.test's
// version.
func BenchmarkHandleUDPChurnHit(b *testing.B) {
	srv, ctl := churnBenchServer(b)
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	benchHandleChurn(b, srv, ctl, wire, false)
	if _, misses, _, _ := srv.hotTotals(); misses != 1 {
		b.Fatalf("%d hot misses in %d iterations: an apply elsewhere cost ex.test its entry", misses, b.N)
	}
}

// BenchmarkHandleUDPChurnMiss: the cache-busting NXDOMAIN flood path
// (unique qname per iteration) against an untouched zone under the same
// apply stream. The zone's compiled view must survive every batch (per-zone
// invalidation), keeping the miss path 0 allocs/op.
func BenchmarkHandleUDPChurnMiss(b *testing.B) {
	srv, ctl := churnBenchServer(b)
	benchHandleChurn(b, srv, ctl, uniqueQueryWire(b, "ex.test"), true)
}
