// Package zone implements the authoritative zone store behind the platform's
// nameservers: RRset storage, the RFC 1034 §4.3.2 lookup algorithm (exact
// match, CNAME chasing, wildcard synthesis, delegation, NXDOMAIN vs NODATA),
// a master-file parser, and AXFR-style snapshots.
package zone

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"akamaidns/internal/dnswire"
)

// rrKey identifies an RRset within a zone.
type rrKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// Zone is one authoritative zone: an apex name and the records at or below
// it. A Zone is safe for concurrent lookups interleaved with updates.
type Zone struct {
	mu     sync.RWMutex
	origin dnswire.Name
	// originWire is the origin's wire-form routing key, rendered once at
	// construction so store router republishes never re-encode names.
	originWire string
	sets       map[rrKey][]dnswire.RR
	// names tracks every owner name with data, plus all "empty non-terminal"
	// ancestors, so NXDOMAIN vs NODATA is decided correctly.
	names  map[dnswire.Name]bool
	serial uint32
	// store is the Store the zone is installed in (nil for a free zone). It
	// hears of every in-place mutation, so store-derived caches can
	// invalidate, and keeps the store-wide view counters.
	store *Store
	// view is the compiled read-only snapshot (see view.go), invalidated on
	// every mutation and lazily recompiled by the next View() caller.
	view         atomic.Pointer[View]
	viewRebuilds atomic.Uint64
}

// New creates an empty zone rooted at origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		origin:     origin,
		originWire: string(origin.AppendWire(nil)),
		sets:       make(map[rrKey][]dnswire.RR),
		names:      make(map[dnswire.Name]bool),
	}
}

// Origin returns the zone apex.
func (z *Zone) Origin() dnswire.Name { return z.origin }

// setStore moves the zone into s (out of any store, with nil), carrying its
// published view's bytes from the old store's gauge to the new one's.
func (z *Zone) setStore(s *Store) {
	z.mu.Lock()
	size := int64(z.ViewBytes())
	if z.store != nil {
		z.store.viewBytes.Add(-size)
	}
	if s != nil {
		s.viewBytes.Add(size)
	}
	z.store = s
	z.mu.Unlock()
}

// notifyLocked drops the compiled view and tells the store; callers hold
// z.mu exclusively, so no concurrent View() call can republish a stale
// snapshot after this store.
func (z *Zone) notifyLocked() {
	v := z.view.Swap(nil)
	if z.store == nil {
		return
	}
	if v != nil {
		z.store.viewBytes.Add(-int64(v.size))
	}
	z.store.bump()
}

// Serial returns the zone's SOA serial (0 when no SOA is present).
func (z *Zone) Serial() uint32 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.serial
}

// Add inserts a record. The owner name must be within the zone. Duplicate
// records (same name/type/rdata rendering) are dropped silently.
func (z *Zone) Add(rr dnswire.RR) error {
	h := rr.Header()
	if !h.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.origin, h.Name)
	}
	if h.Type == dnswire.TypeOPT {
		return errors.New("zone: OPT pseudo-records cannot be stored")
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrKey{h.Name, h.Type}
	// Nearly every RRset is a singleton: render the newcomer only when
	// there is something to compare it against.
	if set := z.sets[k]; len(set) > 0 {
		render := rr.String()
		for _, have := range set {
			if have.String() == render {
				return nil
			}
		}
	}
	if soa, ok := rr.(*dnswire.SOA); ok {
		if h.Name != z.origin {
			return fmt.Errorf("zone %s: SOA at non-apex %s", z.origin, h.Name)
		}
		z.serial = soa.Serial
	}
	z.sets[k] = append(z.sets[k], rr.Copy())
	// Record the owner and all ancestors up to the origin as existing names.
	for n := h.Name; ; n = n.Parent() {
		z.names[n] = true
		if n == z.origin || n.IsRoot() {
			break
		}
	}
	z.notifyLocked()
	return nil
}

// Remove deletes the entire RRset for (name, typ). It reports whether
// anything was removed. Empty-non-terminal bookkeeping is rebuilt.
func (z *Zone) Remove(name dnswire.Name, typ dnswire.Type) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrKey{name, typ}
	if _, ok := z.sets[k]; !ok {
		return false
	}
	delete(z.sets, k)
	z.rebuildNamesLocked()
	z.notifyLocked()
	return true
}

func (z *Zone) rebuildNamesLocked() {
	z.names = make(map[dnswire.Name]bool)
	for k := range z.sets {
		for n := k.name; ; n = n.Parent() {
			z.names[n] = true
			if n == z.origin || n.IsRoot() {
				break
			}
		}
	}
}

// SetSerial bumps the SOA serial (no-op without an SOA). The SOA record is
// replaced, never written through: compiled views share the zone's records,
// and a view taken before the bump keeps answering with the old serial.
func (z *Zone) SetSerial(serial uint32) {
	z.mu.Lock()
	defer z.mu.Unlock()
	set := z.sets[rrKey{z.origin, dnswire.TypeSOA}]
	for i, rr := range set {
		if soa, ok := rr.(*dnswire.SOA); ok {
			bumped := *soa
			bumped.Serial = serial
			set[i] = &bumped
			z.serial = serial
		}
	}
	z.notifyLocked()
}

// SOA returns the zone's SOA record, or nil.
func (z *Zone) SOA() *dnswire.SOA {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, rr := range z.sets[rrKey{z.origin, dnswire.TypeSOA}] {
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa.Copy().(*dnswire.SOA)
		}
	}
	return nil
}

// RRset returns a copy of the records for (name, typ).
func (z *Zone) RRset(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return copyRRs(z.sets[rrKey{name, typ}])
}

// NameExists reports whether the name exists in the zone (has records or is
// an empty non-terminal).
func (z *Zone) NameExists(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.names[name]
}

// Names returns all owner names (including empty non-terminals) in
// canonical order.
func (z *Zone) Names() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnswire.Name, 0, len(z.names))
	for n := range z.names {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Cuts returns the zone's delegation points: non-apex names holding NS
// records. Queries at or below a cut are answered with referrals, never
// NXDOMAIN.
func (z *Zone) Cuts() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.Name
	for k := range z.sets {
		if k.typ == dnswire.TypeNS && k.name != z.origin {
			out = append(out, k.name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// AllRecords returns a copy of every record in the zone (an AXFR-style
// snapshot), SOA first, in canonical owner order.
func (z *Zone) AllRecords() []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	keys := make([]rrKey, 0, len(z.sets))
	for k := range z.sets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := keys[i].name.Compare(keys[j].name); c != 0 {
			return c < 0
		}
		return keys[i].typ < keys[j].typ
	})
	var out []dnswire.RR
	// SOA first, per AXFR convention.
	for _, rr := range z.sets[rrKey{z.origin, dnswire.TypeSOA}] {
		out = append(out, rr.Copy())
	}
	for _, k := range keys {
		if k.name == z.origin && k.typ == dnswire.TypeSOA {
			continue
		}
		for _, rr := range z.sets[k] {
			out = append(out, rr.Copy())
		}
	}
	return out
}

// NumRecords reports the total record count.
func (z *Zone) NumRecords() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, rrs := range z.sets {
		n += len(rrs)
	}
	return n
}

// Result classifies the outcome of a lookup.
type Result int

// Lookup outcomes.
const (
	// Success: Answer holds the matching RRset (possibly after CNAME chain).
	Success Result = iota
	// Delegation: the name is below a delegation point; NS holds the
	// delegation RRset and Glue any in-zone address records.
	Delegation
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// NoData: the name exists but has no records of the requested type.
	NoData
)

func (r Result) String() string {
	switch r {
	case Success:
		return "Success"
	case Delegation:
		return "Delegation"
	case NXDomain:
		return "NXDomain"
	case NoData:
		return "NoData"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Answer is the full outcome of a zone lookup.
type Answer struct {
	Result Result
	// Answer section records (answers + any chased CNAMEs, in chain order).
	Answer []dnswire.RR
	// NS is the delegation RRset for Result == Delegation, or nil.
	NS []dnswire.RR
	// Glue carries address records for in-zone delegation targets.
	Glue []dnswire.RR
	// SOA is provided for negative answers (NXDomain / NoData).
	SOA *dnswire.SOA
}

// maxCNAMEChain bounds in-zone CNAME chasing.
const maxCNAMEChain = 8

// Lookup runs the authoritative lookup algorithm for (qname, qtype).
func (z *Zone) Lookup(qname dnswire.Name, qtype dnswire.Type) Answer {
	z.mu.RLock()
	defer z.mu.RUnlock()

	if !qname.IsSubdomainOf(z.origin) {
		return Answer{Result: NXDomain}
	}
	var ans Answer
	name := qname
	for hop := 0; ; hop++ {
		// 1. Delegation check: walk from below the apex down towards name,
		// looking for an NS cut at any ancestor strictly between apex and
		// name (or at name itself when qtype != NS at a non-apex cut).
		if cut, nsSet := z.findCutLocked(name); cut {
			ans.Result = Delegation
			ans.NS = copyRRs(nsSet)
			ans.Glue = copyRRs(z.appendGlueLocked(nil, nsSet))
			return ans
		}
		// 2. Exact-name data.
		if z.names[name] {
			if rrs := z.sets[rrKey{name, qtype}]; len(rrs) > 0 {
				ans.Result = Success
				ans.Answer = append(ans.Answer, copyRRs(rrs)...)
				return ans
			}
			if qtype == dnswire.TypeANY {
				if any := z.allAtNameLocked(name); len(any) > 0 {
					ans.Result = Success
					ans.Answer = append(ans.Answer, any...)
					return ans
				}
			}
			// CNAME at the name?
			if cn := z.sets[rrKey{name, dnswire.TypeCNAME}]; len(cn) > 0 && qtype != dnswire.TypeCNAME {
				cname := cn[0].(*dnswire.CNAME)
				ans.Answer = append(ans.Answer, cname.Copy())
				if hop >= maxCNAMEChain {
					ans.Result = Success // answer what we have
					return ans
				}
				if cname.Target.IsSubdomainOf(z.origin) {
					name = cname.Target
					continue
				}
				// Out-of-zone target: return the chain; resolver follows.
				ans.Result = Success
				return ans
			}
			ans.Result = NoData
			ans.SOA = z.soaLocked()
			return ans
		}
		// 3. Wildcard synthesis: find the closest encloser then try
		// "*.<encloser>".
		if wrrs, wname := z.wildcardLocked(name, qtype); wrrs != nil {
			for _, rr := range wrrs {
				c := rr.Copy()
				c.Header().Name = name
				ans.Answer = append(ans.Answer, c)
			}
			_ = wname
			ans.Result = Success
			return ans
		}
		// Wildcard CNAME?
		if wcn, _ := z.wildcardLocked(name, dnswire.TypeCNAME); wcn != nil && qtype != dnswire.TypeCNAME {
			c := wcn[0].Copy().(*dnswire.CNAME)
			c.Name = name
			ans.Answer = append(ans.Answer, c)
			if hop >= maxCNAMEChain {
				ans.Result = Success
				return ans
			}
			if c.Target.IsSubdomainOf(z.origin) {
				name = c.Target
				continue
			}
			ans.Result = Success
			return ans
		}
		// Does the name sit under an existing empty non-terminal? Then the
		// query name itself does not exist.
		ans.Result = NXDomain
		ans.SOA = z.soaLocked()
		return ans
	}
}

// findCutLocked reports whether name is at or below a zone cut (an NS set at
// a non-apex ancestor), returning the cut's NS records.
func (z *Zone) findCutLocked(name dnswire.Name) (bool, []dnswire.RR) {
	// Walk ancestors from just below the apex down to name.
	var chain []dnswire.Name
	for n := name; n != z.origin && !n.IsRoot(); n = n.Parent() {
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		if ns := z.sets[rrKey{n, dnswire.TypeNS}]; len(ns) > 0 {
			// NS at the qname itself with qtype NS at a cut is still a
			// delegation for an authoritative-only server below the cut.
			return true, ns
		}
	}
	return false, nil
}

// appendGlueLocked appends the zone's own (shared, uncopied) in-zone A/AAAA
// records for the NS set's targets to dst: per target, A then AAAA.
func (z *Zone) appendGlueLocked(dst, nsSet []dnswire.RR) []dnswire.RR {
	for _, rr := range nsSet {
		ns, ok := rr.(*dnswire.NS)
		if !ok || !ns.Target.IsSubdomainOf(z.origin) {
			continue
		}
		dst = append(dst, z.sets[rrKey{ns.Target, dnswire.TypeA}]...)
		dst = append(dst, z.sets[rrKey{ns.Target, dnswire.TypeAAAA}]...)
	}
	return dst
}

// wildcardLocked finds a wildcard RRset covering name for qtype. Returns the
// RRset and the wildcard owner name, or nil.
func (z *Zone) wildcardLocked(name dnswire.Name, qtype dnswire.Type) ([]dnswire.RR, dnswire.Name) {
	// The closest encloser is the longest existing ancestor of name.
	for enc := name.Parent(); ; enc = enc.Parent() {
		if z.names[enc] {
			wname, err := enc.Prepend("*")
			if err != nil {
				return nil, dnswire.Name{}
			}
			if rrs := z.sets[rrKey{wname, qtype}]; len(rrs) > 0 {
				return rrs, wname
			}
			return nil, dnswire.Name{}
		}
		if enc == z.origin || enc.IsRoot() {
			return nil, dnswire.Name{}
		}
	}
}

func (z *Zone) allAtNameLocked(name dnswire.Name) []dnswire.RR {
	var out []dnswire.RR
	for k, rrs := range z.sets {
		if k.name == name {
			out = append(out, copyRRs(rrs)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Header().Type < out[j].Header().Type })
	return out
}

func (z *Zone) soaLocked() *dnswire.SOA {
	for _, rr := range z.sets[rrKey{z.origin, dnswire.TypeSOA}] {
		if soa, ok := rr.(*dnswire.SOA); ok {
			return soa.Copy().(*dnswire.SOA)
		}
	}
	return nil
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
