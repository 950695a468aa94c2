package ctlplane

import (
	"fmt"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// FuzzPlanApply drives arbitrary desired-state changelists through the full
// plan→apply pipeline and checks the reconciliation contract:
//
//   - never panics, whatever the changelist shape
//   - an applied changelist reaches a fixed point: re-planning the same
//     desired state yields an empty plan (all no-ops)
//   - applied zones serve exactly the planned ToSerial
//   - a rejected changelist is deterministic: re-planning rejects with the
//     identical rejection list, and serving state is untouched
//
// The input decodes as 4-byte ops (zone selector, op kind, two argument
// bytes), so the corpus explores creates, deletes, record-only updates
// (SOA inheritance), explicit-serial updates, and delegation/glue shapes —
// including invalid ones that must die at the validation gate.
func FuzzPlanApply(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})                         // record-only update of a seeded zone
	f.Add([]byte{1, 1, 0, 0})                         // delete a seeded zone
	f.Add([]byte{5, 2, 0, 9})                         // explicit-serial create of a fresh zone
	f.Add([]byte{2, 3, 3, 4})                         // delegation + glue
	f.Add([]byte{0, 2, 0, 0, 0, 2, 0, 0})             // duplicate origin → reject
	f.Add([]byte{3, 2, 0, 1, 1, 0, 7, 7, 6, 3, 2, 2}) // mixed batch
	f.Fuzz(func(t *testing.T, data []byte) {
		store := zone.NewStore()
		c := New(store, Config{})
		// Seed a deterministic serving state: zones z0..z3 at serial 1.
		var seed Changelist
		for i := 0; i < 4; i++ {
			origin := fuzzOrigin(i)
			seed.Zones = append(seed.Zones, ZoneChange{
				Origin:  dnswire.MustName(origin),
				Desired: fuzzSeedZone(origin),
			})
		}
		if p, err := c.SubmitApply(seed); err != nil || p.Status != StatusApplied {
			t.Fatalf("seed: %v %+v", err, p)
		}

		cl := buildFuzzChangelist(data)
		p, err := c.SubmitApply(cl)
		if err != nil {
			t.Fatalf("SubmitApply: %v", err)
		}
		replan := c.Plan(cl)

		switch p.Status {
		case StatusApplied:
			// Fixed point: the desired state is now the serving state.
			if len(replan.Zones) != 0 {
				t.Fatalf("no fixed point: re-plan has %d zone changes (%+v) after applied plan %+v",
					len(replan.Zones), replan.Zones[0], p.Zones)
			}
			if replan.Status == StatusRejected {
				t.Fatalf("re-plan of applied state rejected: %v", replan.Rejections)
			}
			// Serving serials must match what the plan promised.
			for _, zp := range p.Zones {
				z := store.Get(zp.Origin)
				if zp.Op == OpDelete {
					if z != nil {
						t.Fatalf("deleted zone %s still serving", zp.Origin)
					}
					continue
				}
				if z == nil {
					t.Fatalf("applied zone %s not serving", zp.Origin)
				}
				if got := z.Serial(); got != zp.ToSerial {
					t.Fatalf("zone %s serves serial %d, plan promised %d", zp.Origin, got, zp.ToSerial)
				}
			}
		case StatusRejected:
			// Determinism: same input, same verdict, byte-identical reasons.
			if replan.Status != StatusRejected {
				t.Fatalf("first plan rejected, re-plan %s", replan.Status)
			}
			if len(replan.Rejections) != len(p.Rejections) {
				t.Fatalf("rejection drift: %v vs %v", p.Rejections, replan.Rejections)
			}
			for i := range p.Rejections {
				if p.Rejections[i] != replan.Rejections[i] {
					t.Fatalf("rejection %d drifted: %v vs %v", i, p.Rejections[i], replan.Rejections[i])
				}
			}
		case StatusPartial:
			// Single-threaded: nothing can move serials between plan and
			// apply, so conflicts are impossible here.
			t.Fatalf("partial apply without concurrency: %+v", p)
		}
	})
}

func fuzzOrigin(i int) string { return fmt.Sprintf("z%d.fuzz.test", i) }

func fuzzSeedZone(origin string) *zone.Zone {
	text := `
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
www  IN A 192.0.2.1
`
	return zone.MustParseMaster(text, dnswire.MustName(origin))
}

// buildFuzzChangelist decodes data into a deterministic changelist. Calling
// it twice with the same bytes yields equal desired states backed by
// distinct zone objects.
func buildFuzzChangelist(data []byte) Changelist {
	var cl Changelist
	for i := 0; i+4 <= len(data) && len(cl.Zones) < 12; i += 4 {
		origin := fuzzOrigin(int(data[i] % 8))
		name := dnswire.MustName(origin)
		op := data[i+1] % 4
		a, b := data[i+2], data[i+3]
		switch op {
		case 0: // record-only update: SOA inherited from serving state
			text := fmt.Sprintf("$TTL 300\nwww IN A 10.0.%d.%d\n", a, b)
			cl.Zones = append(cl.Zones, ZoneChange{
				Origin:  name,
				Desired: zone.MustParseMaster(text, name),
			})
		case 1: // delete
			cl.Zones = append(cl.Zones, ZoneChange{Origin: name, Delete: true})
		case 2: // explicit-serial create/update
			serial := uint32(a)<<8 | uint32(b)
			if serial == 0 {
				serial = 1
			}
			text := fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 10.1.%d.%d
`, serial, a, b)
			cl.Zones = append(cl.Zones, ZoneChange{
				Origin:  name,
				Desired: zone.MustParseMaster(text, name),
			})
		case 3: // delegation with glue, gated on the glue byte
			serial := uint32(a)<<8 | uint32(b)
			if serial == 0 {
				serial = 1
			}
			glue := ""
			if b%2 == 0 {
				glue = fmt.Sprintf("ns.sub IN A 10.2.%d.%d\n", a, b)
			} // odd b: missing glue → must reject
			text := fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 192.0.2.1
sub  IN NS ns.sub
%s`, serial, glue)
			cl.Zones = append(cl.Zones, ZoneChange{
				Origin:  name,
				Desired: zone.MustParseMaster(text, name),
			})
		}
	}
	return cl
}
