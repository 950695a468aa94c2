package zone

import (
	"bytes"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"akamaidns/internal/dnswire"
)

// rrKey identifies an RRset within a zone.
type rrKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

func keyOf(rr dnswire.RR) rrKey {
	h := rr.Header()
	return rrKey{h.Name, h.Type}
}

func copyRRs(rrs []dnswire.RR) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.Copy()
	}
	return out
}

// names returns every name of the zone in canonical order, read off the
// view's nodes: the apex, each owner and each empty non-terminal.
func (z *Zone) names() []dnswire.Name {
	v := z.View()
	var out []dnswire.Name
	for n := range uint32(len(v.nodes) - 1) {
		out = append(out, v.nodeName(n))
	}
	return out
}

// oracle is the reference implementation of the RFC 1034 §4.3.2 lookup that
// the compiled view is held to. It shares no code and no data structure with
// the serving path: it reads records into two maps — the RRsets, and every
// owner name with its empty-non-terminal ancestors — and walks names by
// string surgery, copying whatever it returns.
type oracle struct {
	origin dnswire.Name
	sets   map[rrKey][]dnswire.RR
	names  map[dnswire.Name]bool
}

// newOracle builds the oracle of a zone's own AllRecords snapshot.
func newOracle(z *Zone) *oracle { return oracleOf(z.Origin(), z.AllRecords()) }

// oracleOf builds the oracle of the records a zone was made from, applying
// the build's rules itself: a record repeated (same owner, type and packed
// body) counts once, and of several apex SOAs the last stands. Each record
// is taken as its wire form reads back, as a zone's readers return it.
func oracleOf(origin dnswire.Name, recs []dnswire.RR) *oracle {
	o := &oracle{origin: origin, sets: make(map[rrKey][]dnswire.RR), names: make(map[dnswire.Name]bool)}
	for _, rr := range recs {
		rr = wireNormal(rr)
		k := keyOf(rr)
		switch {
		case k.typ == dnswire.TypeSOA:
			o.sets[k] = []dnswire.RR{rr}
		case !slices.ContainsFunc(o.sets[k], func(have dnswire.RR) bool { return string(packBody(have)) == string(packBody(rr)) }):
			o.sets[k] = append(o.sets[k], rr)
		}
		for n := k.name; ; n = n.Parent() {
			o.names[n] = true
			if n == o.origin || n.IsRoot() {
				break
			}
		}
	}
	return o
}

// wireNormal returns rr as its packed body decodes.
func wireNormal(rr dnswire.RR) dnswire.RR {
	out, _, err := dnswire.UnpackRRBody(rr.Header().Name, packBody(rr))
	if err != nil {
		panic(err)
	}
	return out
}

// oracleLookup answers one query from a fresh oracle of z.
func oracleLookup(z *Zone, qname dnswire.Name, qtype dnswire.Type) Answer {
	return newOracle(z).Lookup(qname, qtype)
}

// lookupBoth answers (qname, qtype) from the oracle and from the compiled
// view, fails the test unless the two agree, and returns the answer — with
// the oracle's copies, so a caller may scribble on it.
func lookupBoth(t testing.TB, z *Zone, qname dnswire.Name, qtype dnswire.Type) Answer {
	t.Helper()
	want := oracleLookup(z, qname, qtype)
	if diff := answersEqual(z.View().Lookup(qname, qtype), want); diff != "" {
		t.Fatalf("view parity %s %v: %s", qname, qtype, diff)
	}
	return want
}

// Lookup runs the authoritative lookup algorithm for (qname, qtype).
func (o *oracle) Lookup(qname dnswire.Name, qtype dnswire.Type) Answer {
	if !qname.IsSubdomainOf(o.origin) {
		return Answer{Result: NXDomain}
	}
	var ans Answer
	name := qname
	for hop := 0; ; hop++ {
		// 1. Delegation check: walk from below the apex down towards name,
		// looking for an NS cut at any ancestor strictly between apex and
		// name (or at name itself when qtype != NS at a non-apex cut).
		if cut, nsSet := o.findCut(name); cut {
			ans.Result = Delegation
			ans.NS = copyRRs(nsSet)
			ans.Glue = copyRRs(o.glue(nsSet))
			return ans
		}
		// 2. Exact-name data.
		if o.names[name] {
			if rrs := o.sets[rrKey{name, qtype}]; len(rrs) > 0 {
				ans.Result = Success
				ans.Answer = append(ans.Answer, copyRRs(rrs)...)
				return ans
			}
			if qtype == dnswire.TypeANY {
				if any := o.allAtName(name); len(any) > 0 {
					ans.Result = Success
					ans.Answer = append(ans.Answer, any...)
					return ans
				}
			}
			// CNAME at the name?
			if cn := o.sets[rrKey{name, dnswire.TypeCNAME}]; len(cn) > 0 && qtype != dnswire.TypeCNAME {
				cname := cn[0].(*dnswire.CNAME)
				ans.Answer = append(ans.Answer, cname.Copy())
				if hop >= maxCNAMEChain {
					ans.Result = Success // answer what we have
					return ans
				}
				if cname.Target.IsSubdomainOf(o.origin) {
					name = cname.Target
					continue
				}
				// Out-of-zone target: return the chain; resolver follows.
				ans.Result = Success
				return ans
			}
			ans.Result = NoData
			ans.SOA = o.soa()
			return ans
		}
		// 3. Wildcard synthesis: find the closest encloser then try
		// "*.<encloser>".
		if wrrs := o.wildcard(name, qtype); wrrs != nil {
			for _, rr := range wrrs {
				c := rr.Copy()
				c.Header().Name = name
				ans.Answer = append(ans.Answer, c)
			}
			ans.Result = Success
			return ans
		}
		// Wildcard CNAME?
		if wcn := o.wildcard(name, dnswire.TypeCNAME); wcn != nil && qtype != dnswire.TypeCNAME {
			c := wcn[0].Copy().(*dnswire.CNAME)
			c.Name = name
			ans.Answer = append(ans.Answer, c)
			if hop >= maxCNAMEChain {
				ans.Result = Success
				return ans
			}
			if c.Target.IsSubdomainOf(o.origin) {
				name = c.Target
				continue
			}
			ans.Result = Success
			return ans
		}
		// Does the name sit under an existing empty non-terminal? Then the
		// query name itself does not exist.
		ans.Result = NXDomain
		ans.SOA = o.soa()
		return ans
	}
}

// findCut reports whether name is at or below a zone cut (an NS set at a
// non-apex ancestor), returning the topmost cut's NS records.
func (o *oracle) findCut(name dnswire.Name) (bool, []dnswire.RR) {
	// Walk ancestors from just below the apex down to name.
	var chain []dnswire.Name
	for n := name; n != o.origin && !n.IsRoot(); n = n.Parent() {
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if ns := o.sets[rrKey{chain[i], dnswire.TypeNS}]; len(ns) > 0 {
			// NS at the qname itself with qtype NS at a cut is still a
			// delegation for an authoritative-only server below the cut.
			return true, ns
		}
	}
	return false, nil
}

// glue collects the in-zone A/AAAA records of the NS set's targets: per
// target, A then AAAA.
func (o *oracle) glue(nsSet []dnswire.RR) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range nsSet {
		ns, ok := rr.(*dnswire.NS)
		if !ok || !ns.Target.IsSubdomainOf(o.origin) {
			continue
		}
		out = append(out, o.sets[rrKey{ns.Target, dnswire.TypeA}]...)
		out = append(out, o.sets[rrKey{ns.Target, dnswire.TypeAAAA}]...)
	}
	return out
}

// wildcard finds a wildcard RRset covering name for qtype, or nil.
func (o *oracle) wildcard(name dnswire.Name, qtype dnswire.Type) []dnswire.RR {
	// The closest encloser is the longest existing ancestor of name.
	for enc := name.Parent(); ; enc = enc.Parent() {
		if o.names[enc] {
			wname, err := enc.Prepend("*")
			if err != nil {
				return nil
			}
			return o.sets[rrKey{wname, qtype}]
		}
		if enc == o.origin || enc.IsRoot() {
			return nil
		}
	}
}

func (o *oracle) allAtName(name dnswire.Name) []dnswire.RR {
	var out []dnswire.RR
	for k, rrs := range o.sets {
		if k.name == name {
			out = append(out, copyRRs(rrs)...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Header().Type < out[j].Header().Type })
	return out
}

func (o *oracle) soa() *dnswire.SOA {
	for _, rr := range o.sets[rrKey{o.origin, dnswire.TypeSOA}] {
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa.Copy().(*dnswire.SOA)
		}
	}
	return nil
}

// render joins the records' presentation forms, in order.
func render(rrs []dnswire.RR) string {
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String()
	}
	return strings.Join(out, "|")
}

// TestLookupCornerCases is the table of cases "Reachability Analysis of the
// Domain Name System" enumerates as the ones authoritative implementations
// get wrong; the oracle and View.Lookup must both pass every row. The zone,
// testdata/corner.zone, also goes through the socket server's wire tier in
// netserve's TestViewServeDifferential.
func TestLookupCornerCases(t *testing.T) {
	z := cornerZone(t)
	o, v := newOracle(z), z.View()
	for _, c := range cornerCases {
		for impl, got := range map[string]Answer{"oracle": o.Lookup(n(c.qname), c.qtype), "view": v.Lookup(n(c.qname), c.qtype)} {
			if got.Result != c.want {
				t.Errorf("%s: %s %s %v = %v, want %v", c.why, impl, c.qname, c.qtype, got.Result, c.want)
				continue
			}
			if rendered := render((got.Answer)); c.answer != "" && rendered != c.answer {
				t.Errorf("%s: %s %s %v answers %q, want %q", c.why, impl, c.qname, c.qtype, rendered, c.answer)
			}
			switch c.want {
			case Delegation:
				// Only the in-zone target has glue, and occluded data below
				// the cut is still what the glue is read from.
				if ns, glue := render((got.NS)), render((got.Glue)); ns != "cut.corner.test.\t60\tIN\tNS\tns.cut.corner.test.|cut.corner.test.\t60\tIN\tNS\tns.far.example." ||
					glue != "ns.cut.corner.test.\t60\tIN\tA\t192.0.2.5" {
					t.Errorf("%s: %s referral NS %q glue %q", c.why, impl, ns, glue)
				}
			case NoData, NXDomain:
				if got.SOA == nil || got.SOA.Serial != 7 {
					t.Errorf("%s: %s negative answer without the zone's SOA: %v", c.why, impl, got.SOA)
				}
			}
		}
	}
}

// cornerZone parses testdata/corner.zone.
func cornerZone(t *testing.T) *Zone {
	text, err := os.ReadFile("testdata/corner.zone")
	if err != nil {
		t.Fatal(err)
	}
	z, err := ParseMaster(bytes.NewReader(text), n("corner.test"))
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// cornerCases are TestLookupCornerCases' rows.
var cornerCases = []struct {
	why   string
	qname string
	qtype dnswire.Type
	want  Result
	// answer is the rendered answer section ("" to skip the check).
	answer string
	// allocs is what View.Lookup allocates answering the row: its records
	// and the slices holding them, no owner (TestLookupOwners).
	allocs float64
}{
	{"an empty non-terminal exists: NODATA, not NXDOMAIN", "ent1.ent2.corner.test", dnswire.TypeA, NoData, "", 3},
	{"so does the empty non-terminal above it", "ent2.corner.test", dnswire.TypeA, NoData, "", 3},
	{"a sibling of the leaf under the ENT does not", "other.ent1.ent2.corner.test", dnswire.TypeA, NXDomain, "", 3},
	{"nor does a name under the leaf", "x.leaf.ent1.ent2.corner.test", dnswire.TypeA, NXDomain, "", 3},
	{"a wildcard under an ENT synthesizes", "any.w.ent.corner.test", dnswire.TypeA, Success, "any.w.ent.corner.test.\t60\tIN\tA\t192.0.2.3", 2},
	{"and at any depth below its parent", "a.b.w.ent.corner.test", dnswire.TypeA, Success, "a.b.w.ent.corner.test.\t60\tIN\tA\t192.0.2.3", 2},
	{"the wildcard's parent is itself an ENT", "w.ent.corner.test", dnswire.TypeA, NoData, "", 3},
	{"the ENT above that has no wildcard child: NXDOMAIN beside it", "v.ent.corner.test", dnswire.TypeA, NXDomain, "", 3},
	{"a wildcard owner queried literally is an exact match", "*.w.ent.corner.test", dnswire.TypeA, Success, "*.w.ent.corner.test.\t60\tIN\tA\t192.0.2.3", 2},
	{"a wildcard without the type is NXDOMAIN (no node to hang NODATA on)", "any.w.ent.corner.test", dnswire.TypeTXT, NXDomain, "", 3},
	{"CNAME at a wildcard is re-owned and chased in zone", "x.cw.corner.test", dnswire.TypeA, Success, "x.cw.corner.test.\t60\tIN\tCNAME\tleaf.ent1.ent2.corner.test.|leaf.ent1.ent2.corner.test.\t60\tIN\tA\t192.0.2.2", 5},
	{"asked for the CNAME itself, a wildcard CNAME is the answer", "x.cw.corner.test", dnswire.TypeCNAME, Success, "x.cw.corner.test.\t60\tIN\tCNAME\tleaf.ent1.ent2.corner.test.", 3},
	{"a wildcard CNAME out of zone ends the chain", "x.out.corner.test", dnswire.TypeA, Success, "x.out.corner.test.\t60\tIN\tCNAME\twww.elsewhere.example.", 3},
	{"an existing sibling blocks the wildcard for its own name", "host.star.corner.test", dnswire.TypeTXT, NoData, "", 3},
	{"but not for names beside it", "other.star.corner.test", dnswire.TypeTXT, Success, "other.star.corner.test.\t60\tIN\tTXT\t\"star\"", 4},
	{"nor does the wildcard apply below the existing sibling", "x.host.star.corner.test", dnswire.TypeTXT, NXDomain, "", 3},
	{"a name at a cut is a referral, whatever the type", "cut.corner.test", dnswire.TypeNS, Delegation, "", 8},
	{"data below a cut is occluded", "occluded.cut.corner.test", dnswire.TypeA, Delegation, "", 8},
	{"a wildcard below a cut is occluded", "anything.cut.corner.test", dnswire.TypeA, Delegation, "", 8},
	{"an ENT below a cut is occluded", "under.cut.corner.test", dnswire.TypeA, Delegation, "", 8},
	{"a missing name below a cut is a referral, never NXDOMAIN", "no.such.name.cut.corner.test", dnswire.TypeA, Delegation, "", 8},
	{"the apex NS set is an answer, not a cut", "corner.test", dnswire.TypeNS, Success, "corner.test.\t60\tIN\tNS\tns1.corner.test.", 3},
}
