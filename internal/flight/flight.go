// Package flight is the query flight recorder: per-worker ring buffers of
// compact fixed-size query records, captured at line rate on the serving
// path, with streaming heavy-hitter analytics on top.
//
// The paper's Figure 5 treats monitoring as a first-class subsystem —
// Akamai's operators diagnose attacks and drive suspension/failover
// decisions from per-nameserver query telemetry, not just aggregate
// counters. The obs registry answers "how many"; this package answers
// "which queries": when a query-of-death quarantine fires or a
// random-subdomain flood lands, the rings hold the recent offending
// traffic and the top-k sketches name the attack suffix, without ever
// allocating on the hot path.
//
// Capture discipline:
//
//   - Records are fixed-size structs copied into pre-allocated rings; no
//     interface boxing, no per-record heap allocation.
//   - Normal traffic (served / cached / view verdicts with benign rcodes)
//     is head-sampled 1-in-N: the serving path draws the decision once per
//     query and hands it over in Sample.Sampled.
//   - Anomalies are always recorded: SERVFAIL/REFUSED/FORMERR responses,
//     quarantine hits, ladder-shed drops, contained crashes, and latency
//     outliers escalate to 100% capture regardless of the sampling rate.
//   - Heavy-hitter sketches (space-saving top-k) run over the qname
//     suffix (the attack-identifying parent domain), the qtype, and the
//     resolver address, updated only for captured records.
package flight

import (
	"net/netip"
	"strconv"
	"time"
)

// Verdict classifies how the server disposed of a query.
type Verdict uint8

// Verdicts, in escalating abnormality. Everything above VerdictView is
// anomalous and always captured.
const (
	// VerdictServed: answered by the full decode/score/answer path.
	VerdictServed Verdict = iota
	// VerdictCached: replayed from the packed-response hot cache.
	VerdictCached
	// VerdictView: assembled from a compiled zone view (including the
	// out-of-zone REFUSED the view tier renders).
	VerdictView
	// VerdictQuarantined: refused pre-decode by the query-of-death
	// quarantine.
	VerdictQuarantined
	// VerdictShed: dropped or refused by the overload degradation ladder,
	// the scoring pipeline (discard / tail drop), or the clean-only tier.
	VerdictShed
	// VerdictError: undecodable (FORMERR or silently dropped garbage).
	VerdictError
	// VerdictCrashed: the handler panicked on this query and the recover
	// boundary contained it.
	VerdictCrashed

	// VerdictNone marks an unclassified sample; the recorder ignores it.
	VerdictNone Verdict = 0xFF
)

// verdictNames is the forensics vocabulary (JSON output and filters).
var verdictNames = [...]string{
	VerdictServed:      "served",
	VerdictCached:      "cached",
	VerdictView:        "view",
	VerdictQuarantined: "quarantined",
	VerdictShed:        "shed",
	VerdictError:       "error",
	VerdictCrashed:     "crashed",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// VerdictFromString parses a verdict name (for query filters).
func VerdictFromString(s string) (Verdict, bool) {
	for v, name := range verdictNames {
		if name == s {
			return Verdict(v), true
		}
	}
	return VerdictNone, false
}

// Anomalous reports whether the verdict alone forces capture.
func (v Verdict) Anomalous() bool { return v > VerdictView && v != VerdictNone }

// Record flags.
const (
	// FlagAnomalous marks a record captured by escalation rather than
	// head sampling.
	FlagAnomalous uint8 = 1 << iota
	// FlagTCP marks a query that arrived over TCP.
	FlagTCP
)

// SuffixBytes bounds the qname text kept per record. Longer names keep
// their tail — the zone- and attack-identifying part.
const SuffixBytes = 32

// LatencyUnknown is the Latency value of a record whose query was not
// answered (shed, dropped, crashed), so no answer latency exists.
const LatencyUnknown int32 = -1

// Record is one captured query: fixed size, no pointers, safe to copy
// into a pre-allocated ring without allocating.
type Record struct {
	// When is nanoseconds since the recorder's epoch.
	When int64
	// Hash is FNV-1a over the case-folded dotted qname (0 if unparsed).
	Hash uint64
	// Client is the source address (16-byte form; IPv4 arrives mapped).
	Client [16]byte
	// Port is the source port.
	Port uint16
	// QType is the wire query type (0 if unparsed).
	QType uint16
	// Latency is the answer latency in microseconds, or LatencyUnknown
	// when the query was not answered.
	Latency int32
	// RCode is the response code sent (or that would label the action:
	// REFUSED for quarantine hits, 0 for silent drops).
	RCode uint8
	// Verdict classifies the disposal.
	Verdict Verdict
	// Flags carries FlagAnomalous / FlagTCP.
	Flags uint8
	// SuffixLen is the live prefix of Suffix.
	SuffixLen uint8
	// Suffix is the tail of the case-folded dotted qname text.
	Suffix [SuffixBytes]byte
}

// SuffixString returns the recorded qname tail as a string (allocates;
// forensics-path only).
func (r *Record) SuffixString() string { return string(r.Suffix[:r.SuffixLen]) }

// ClientAddrPort reconstructs the source address.
func (r *Record) ClientAddrPort() netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom16(r.Client).Unmap(), r.Port)
}

// Anomalous reports the capture reason.
func (r *Record) Anomalous() bool { return r.Flags&FlagAnomalous != 0 }

// Sample is the capture-site description of one handled query, filled in
// by the serving path and offered to a Worker. The zero value plus
// Verdict = VerdictNone is ignored.
type Sample struct {
	// QnameWire is the raw wire-form qname (any case), aliasing the
	// packet buffer; valid only for the duration of the Observe call.
	// May be nil when the packet never parsed.
	QnameWire []byte
	// Qname is the dotted-text fallback when only a decoded name is at
	// hand (the slow path's interned Name string).
	Qname string
	// Zone is the matched zone origin text ("" when none matched).
	Zone string
	// Src is the client source address.
	Src netip.AddrPort
	// Latency is the measured handle time of an answered query; negative
	// when there is none.
	Latency time.Duration
	// QType is the wire query type (0 if unknown).
	QType uint16
	// RCode is the response code (see Record.RCode).
	RCode uint8
	// Verdict classifies the disposal; VerdictNone suppresses capture.
	Verdict Verdict
	// TCP marks TCP arrival.
	TCP bool
	// Sampled is the serving path's head-sampling decision: a sample that is
	// not anomalous is captured only when it is set.
	Sampled bool
}

// fnv1a64 hashes b (FNV-1a, 64-bit) without touching hash/fnv's
// interface machinery.
func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// RCodeName names a response code for forensics output (self-contained
// so the package depends only on obs and the standard library).
var rcodeNames = map[uint8]string{
	0: "NOERROR", 1: "FORMERR", 2: "SERVFAIL", 3: "NXDOMAIN",
	4: "NOTIMP", 5: "REFUSED", 8: "NOTAUTH", 9: "NOTZONE",
}

// RCodeName renders a response code ("NXDOMAIN", or "RCODE17").
func RCodeName(rc uint8) string {
	if s, ok := rcodeNames[rc]; ok {
		return s
	}
	return "RCODE" + strconv.Itoa(int(rc))
}

// QTypeName renders a query type ("A", "AAAA", or "TYPE64").
var qtypeNames = map[uint16]string{
	1: "A", 2: "NS", 5: "CNAME", 6: "SOA", 12: "PTR", 15: "MX",
	16: "TXT", 28: "AAAA", 33: "SRV", 41: "OPT", 43: "DS", 46: "RRSIG",
	48: "DNSKEY", 251: "IXFR", 252: "AXFR", 255: "ANY",
}

func QTypeName(t uint16) string {
	if s, ok := qtypeNames[t]; ok {
		return s
	}
	return "TYPE" + strconv.Itoa(int(t))
}

// QTypeFromString inverts QTypeName (for query filters).
func QTypeFromString(s string) (uint16, bool) {
	for t, name := range qtypeNames {
		if name == s {
			return t, true
		}
	}
	return 0, false
}
