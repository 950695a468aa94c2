package netserve

// This file is the compiled-view serving path: the middle tier between the
// packed-response hot cache (exact repeats) and the full decode pipeline.
// It answers any well-formed, non-client-specific UDP query — including the
// random-subdomain NXDOMAIN floods and delegation walks that are hot-cache
// misses by construction — by appending pre-packed RRset bytes from the
// zone's immutable View straight into the response buffer: no locks, no
// message decode, no per-query allocations.

import (
	"net/netip"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/obs"
	"akamaidns/internal/zone"
)

// qodMarkerWire is the crash-trap label in wire-comparable form. Matching
// raw folded qname bytes can false-positive (a length octet masquerading as
// a marker character) but never false-negative — the marker contains no
// dots, so a text match is always contiguous within one label. A false
// positive merely routes the query to the slow path.
var qodMarkerWire = []byte(dnswire.QoDMarkerLabel)

// optEcho is the engine's fixed EDNS echo — NewOPT(1232) — in wire form:
// root owner, TYPE=OPT, CLASS=1232, zero TTL and RDLENGTH.
var optEcho = []byte{0, 0, 0x29, 0x04, 0xD0, 0, 0, 0, 0, 0, 0}

// handleView serves one client-agnostic UDP query (see dispatch) from the
// compiled view of the zone it was routed to (see route). It reports
// done=false when the query needs the decode path: a type the wire path
// does not assemble (ANY), or a response too large for the client's
// payload limit (the decode path owns truncation). A query this tier admitted and then could
// not answer carries that in the outcome, so the decode path does not admit
// it again.
func (s *Server) handleView(wire []byte, v dnswire.QueryView, src netip.AddrPort, sc *scratch, level int) ([]byte, bool) {
	oc := &sc.oc
	qfold, z := sc.vq, oc.from
	// View-served queries score and pass admission exactly like decode-path
	// ones, on the folded name route compared: scored or not, the path makes
	// no allocation.
	if s.unscored(sc) {
		oc.fq = filters.Query{Resolver: s.resolverKey(src.Addr()), Qname: qfold, Type: v.QType}
		if z != nil {
			oc.fq.Zone = z.Origin()
		}
		if reply, ok := s.admit(wire, level, sc); !ok {
			return reply, true
		}
	}
	if z == nil {
		oc.verdict, oc.rcode = flight.VerdictView, dnswire.RCodeRefused
		out := viewRefused(wire, v, sc.out[:0])
		sc.out = out
		oc.span.Mark(obs.StageLookup)
		s.Metrics.ViewServed.Add(1)
		return out, true
	}
	view := z.View()
	// Header + question echo: ID, QR|RD, counts patched below; the question
	// is replayed raw so 0x20 mixed-case spelling round-trips, and the
	// answer owners point into it (case-insensitively equal to the folded
	// bytes the lookup matched on).
	out := append(sc.out[:0],
		wire[0], wire[1],
		0x80|wire[2]&0x01, 0,
		0, 1, 0, 0, 0, 0, 0, 0)
	out = append(out, wire[12:12+v.QnameLen+4]...)
	out, wa, okA := view.AppendAnswer(out, qfold, 12, v.QType)
	if !okA {
		// ANY, or a name outside the zone — decode path.
		sc.out = out[:0]
		return nil, false
	}
	aa := byte(0x04)
	var rcode dnswire.RCode
	switch wa.Result {
	case zone.Delegation:
		aa = 0
	case zone.NXDomain:
		rcode = dnswire.RCodeNXDomain
	}
	out[2] |= aa
	out[3] = byte(rcode)
	ar := wa.Additional
	if v.HasOPT {
		out = append(out, optEcho...)
		ar++
	}
	out[6], out[7] = byte(wa.Answer>>8), byte(wa.Answer)
	out[8], out[9] = byte(wa.Authority>>8), byte(wa.Authority)
	out[10], out[11] = byte(ar>>8), byte(ar)
	limit := dnswire.MaxUDPPayload
	if v.HasOPT && int(v.UDPSize) > limit {
		limit = int(v.UDPSize)
	}
	if len(out) > limit {
		// Oversize: the decode path owns truncation and TC signaling.
		sc.out = out[:0]
		return nil, false
	}
	sc.out = out
	// Only names that exist in the zone are replayable (wa.Cacheable): the
	// hot cache's key space stays bounded by zone contents, so repeat
	// queries graduate to the packed-response tier while random-subdomain
	// floods never insert (and never allocate).
	oc.verdict, oc.rcode, oc.zone, oc.cacheable = flight.VerdictView, rcode, view.Origin(), wa.Cacheable
	// AppendAnswer looks up and writes in one call: one lookup stage.
	oc.span.Mark(obs.StageLookup)
	s.Metrics.ViewServed.Add(1)
	return out, true
}

// viewRefused builds the REFUSED response for a query outside every hosted
// zone, matching the engine's shape: question echoed, OPT echoed when the
// query carried one, AA clear.
func viewRefused(wire []byte, v dnswire.QueryView, out []byte) []byte {
	ar := byte(0)
	if v.HasOPT {
		ar = 1
	}
	out = append(out,
		wire[0], wire[1],
		0x80|wire[2]&0x01,
		byte(dnswire.RCodeRefused),
		0, 1, 0, 0, 0, 0, 0, ar)
	out = append(out, wire[12:12+v.QnameLen+4]...)
	if v.HasOPT {
		out = append(out, optEcho...)
	}
	return out
}
