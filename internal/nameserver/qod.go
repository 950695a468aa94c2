package nameserver

import (
	"strings"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/qod"
)

// ExactSignature is the signature a query of death is quarantined under
// before minimization: its qname (wire form, any case; copied folded), its
// qtype, and its opcode and RD bits of the header flags, the only request
// bits that steer query-processing code paths.
func ExactSignature(qname []byte, qtype dnswire.Type, flags uint16) qod.Signature {
	const mask = qod.FlagMaskOpcode | qod.FlagMaskRD
	return qod.Signature{Suffix: qod.FoldName(qname), QType: uint16(qtype), FlagMask: mask, FlagBits: flags & mask}
}

// qodFlags is q's opcode and RD bit in header-flag form.
func qodFlags(q *dnswire.Message) uint16 {
	flags := uint16(q.OpCode&0xF) << 11
	if q.RecursionDesired {
		flags |= qod.FlagMaskRD
	}
	return flags
}

// MinimizeQoD replays a one-question query against the engine and, if it
// crashes, reports the widest signature that still does: the shortest
// label-aligned suffix of its qname, widened to any qtype and any flags
// when probes show those do not matter. Every replay runs in its own
// recover boundary, so a probe that panics counts as a crash. Both the
// simulated and the socket server quarantine what this returns.
func (e *Engine) MinimizeQoD(q *dnswire.Message) (sig qod.Signature, crashed bool) {
	if len(q.Questions) != 1 || !e.crashes(q) {
		return qod.Signature{}, false
	}
	orig := q.Questions[0]
	labels := orig.Name.Labels()

	// Minimal suffix: probe from the shortest (rightmost label) outward;
	// the first suffix that still crashes is the minimal generalization. A
	// suffix of a valid name is a valid name.
	minName := orig.Name
	for i := len(labels) - 1; i > 0; i-- {
		n := dnswire.MustName(strings.Join(labels[i:], "."))
		if e.crashes(probeQuery(n, orig.Type, q.RecursionDesired)) {
			minName = n
			break
		}
	}
	sig = ExactSignature(minName.AppendWire(nil), orig.Type, qodFlags(q))
	// QType pin: if an alternate type also crashes, the type is irrelevant.
	alt := dnswire.TypeTXT
	if orig.Type == dnswire.TypeTXT {
		alt = dnswire.TypeA
	}
	if e.crashes(probeQuery(minName, alt, q.RecursionDesired)) {
		sig.QType = 0
	}
	// Flag pin: if flipping RD still crashes, the header bits are
	// irrelevant too.
	if e.crashes(probeQuery(minName, orig.Type, !q.RecursionDesired)) {
		sig.FlagMask, sig.FlagBits = 0, 0
	}
	return sig, true
}

// probeQuery builds a minimization probe.
func probeQuery(n dnswire.Name, t dnswire.Type, rd bool) *dnswire.Message {
	q := dnswire.NewQuery(1, n, t)
	q.RecursionDesired = rd
	return q
}

// crashes answers one replayed query in a recover boundary, reporting
// whether it crashed the engine (a Go panic or the simulated crashed
// return).
func (e *Engine) crashes(q *dnswire.Message) (crashed bool) {
	defer func() {
		if recover() != nil {
			crashed = true
		}
	}()
	_, _, crashed = e.Answer(q, ResolverKey("qod-replay"))
	return crashed
}
