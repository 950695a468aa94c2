package ctlplane

import (
	"fmt"
	"sort"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// validateZone is the pre-serve gate for one desired zone: the checks that
// must hold before any machine is allowed to answer from this content.
// Building a zone already enforces per-record hygiene (records in-zone, SOA
// only at apex, dedup); this layer checks the cross-record invariants a
// record-at-a-time check cannot see — CNAME discipline, delegation/glue
// consistency, occlusion — because at fleet scale a structurally broken
// zone is an outage multiplied by every edge machine it reaches.
func validateZone(z *zone.Zone) []Rejection {
	var rej []Rejection
	origin := z.Origin()
	badly := func(reason string, format string, args ...any) {
		rej = append(rej, Rejection{Origin: origin, Reason: reason,
			Detail: fmt.Sprintf(format, args...)})
	}

	// One pass over the zone, grouped by owner name.
	type nameData struct {
		cname  int
		ns     []dnswire.Name
		addrs  int
		others int // anything that is not CNAME/NS/A/AAAA/SOA
		total  int
	}
	byName := make(map[dnswire.Name]*nameData)
	at := func(n dnswire.Name) *nameData {
		d := byName[n]
		if d == nil {
			d = &nameData{}
			byName[n] = d
		}
		return d
	}
	for _, rr := range z.AllRecords() {
		d := at(rr.Header().Name)
		d.total++
		switch r := rr.(type) {
		case *dnswire.CNAME:
			d.cname++
		case *dnswire.NS:
			d.ns = append(d.ns, r.Target)
		case *dnswire.A:
			d.addrs++
		case *dnswire.AAAA:
			d.addrs++
		case *dnswire.SOA:
			d.total-- // apex framing, not data
		default:
			d.others++
		}
	}

	// Delegation map: every non-apex name owning NS records starts a cut.
	cuts := make(map[dnswire.Name]bool)
	for _, cut := range z.Cuts() {
		cuts[cut] = true
	}
	// deepestCut returns the closest cut strictly above name (zero when
	// name sits in authoritative space).
	deepestCut := func(name dnswire.Name) dnswire.Name {
		for n := name.Parent(); !n.IsZero() && n != origin && n.IsSubdomainOf(origin); n = n.Parent() {
			if cuts[n] {
				return n
			}
		}
		return dnswire.Name{}
	}
	// isGlueFor reports whether name is an NS target of the cut.
	isGlueFor := func(cut, name dnswire.Name) bool {
		if d := byName[cut]; d != nil {
			for _, t := range d.ns {
				if t == name {
					return true
				}
			}
		}
		return false
	}

	// Deterministic order: rejection lists must render identically for the
	// same desired state (replanning a rejected changelist is idempotent).
	names := make([]dnswire.Name, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Compare(names[j]) < 0 })

	for _, name := range names {
		d := byName[name]
		// CNAME discipline: at most one, alone at its name, never at apex.
		if d.cname > 0 {
			if name == origin {
				badly("cname-at-apex", "CNAME at zone apex %s", name)
			}
			if d.cname > 1 {
				badly("cname-multiple", "%d CNAME records at %s", d.cname, name)
			}
			if d.total > d.cname {
				badly("cname-conflict", "CNAME at %s coexists with other data", name)
			}
		}

		atCut := cuts[name]
		if cut := deepestCut(name); !cut.IsZero() {
			// Below a delegation cut only glue — address records for that
			// cut's NS targets — may exist; anything else is occluded:
			// unreachable via resolution yet silently served, the classic
			// stale-data smell.
			if atCut || d.total != d.addrs || !isGlueFor(cut, name) {
				badly("occluded-data", "%s sits below delegation cut %s and is not its glue", name, cut)
			}
			continue
		}
		// At a cut itself only the NS set — plus its own glue when the cut
		// is one of its NS targets — belongs.
		if atCut && (d.cname > 0 || d.others > 0 || (d.addrs > 0 && !isGlueFor(name, name))) {
			badly("occluded-data", "non-NS data at delegation cut %s", name)
		}

		// Delegation/glue consistency for the NS set at this cut (apex NS
		// name this zone's own servers, not a cut).
		if name == origin {
			continue
		}
		for _, target := range d.ns {
			if !target.IsSubdomainOf(origin) {
				continue // out-of-zone target: resolver's problem, no glue due
			}
			if target.IsSubdomainOf(name) {
				// In-bailiwick at/below the cut: glue is mandatory or the
				// delegation is unresolvable.
				td := byName[target]
				if td == nil || td.addrs == 0 {
					badly("missing-glue", "NS %s for cut %s needs glue A/AAAA", target, name)
				}
			} else if !z.NameExists(target) {
				// In-zone, outside the cut: the name must at least exist
				// here, else the delegation dangles.
				badly("dangling-ns", "NS target %s for cut %s does not exist in zone", target, name)
			}
		}
	}
	return rej
}
