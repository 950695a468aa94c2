// Package qod is the self-protection toolkit for the real serving path
// (§4.2, §4.3 of the paper, applied to live sockets):
//
//   - Journal: a per-worker ring of the last N raw queries, recorded on the
//     hot path for near-zero cost, snapshotted when a handler panics so the
//     offending wire pattern can be replayed and minimized off-path.
//   - Signature / Quarantine: a bounded set of query-of-death signatures
//     (qname suffix + qtype + flag mask) consulted before a packet is even
//     decoded; quarantined patterns are REFUSED at near-zero cost, with
//     probationary re-admission after a TTL (§4.3: "the platform quarantines
//     the query of death and the nameserver returns to service").
//   - Ladder: the overload degradation ladder keyed on in-flight handler
//     count — full service, then hot-cache/allowlist-only, then
//     clean-score-tier-only, then drop — so overload sheds by score rather
//     than at the kernel's whim (§5.2).
//   - StormWindow: the storm tripwire — contained panics or undecodable
//     packets per window past a threshold — that the server's monitoring
//     agent probes to decide when containment is not enough.
//
// The package depends only on the standard library; the socket server wires
// the pieces together and exports their state through obs. The simulated
// nameserver contains crashes through the same Quarantine.
package qod

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DNS header flag masks the signature machinery cares about. The opcode
// field and the RD bit are the only header bits that change which code
// paths a query exercises; everything else is echo/noise.
const (
	FlagMaskOpcode uint16 = 0x7800
	FlagMaskRD     uint16 = 0x0100
)

// Outcome is a quarantine consultation result.
type Outcome int

// Quarantine outcomes.
const (
	// Miss: no signature matches; serve normally.
	Miss Outcome = iota
	// Blocked: an active signature matches; REFUSE without decoding.
	Blocked
	// Probation: a signature matches but its TTL has lapsed; let this query
	// through as the re-admission probe. If it completes, Acquit the entry;
	// if it panics, the containment path re-strikes it automatically.
	Probation
)

// Signature is the minimal description of a query-of-death wire pattern: a
// case-folded, label-aligned qname suffix in wire form (terminal root label
// included), an optional qtype pin (0 matches any type), and a header flag
// mask/bits pair. A query matches when its qname ends with Suffix at a
// label boundary, its qtype passes the pin, and its masked flags equal
// FlagBits.
type Signature struct {
	Suffix   []byte
	QType    uint16 // 0 = any qtype
	FlagMask uint16
	FlagBits uint16
}

// foldByte lowercases ASCII letters; label length octets (1..63) are below
// 'A' so the whole wire name can be folded blindly.
func foldByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// FoldName returns the case-folded copy of a wire-form name, the canonical
// spelling signatures store.
func FoldName(wire []byte) []byte {
	out := make([]byte, len(wire))
	for i, c := range wire {
		out[i] = foldByte(c)
	}
	return out
}

// MatchesName reports whether qname (raw wire form, any case) ends with the
// signature's suffix at a label boundary. A qname that is not a sequence of
// 1..63-octet labels ending in the root label at its last octet matches
// nothing.
func (s Signature) MatchesName(qname []byte) bool {
	off := len(qname) - len(s.Suffix)
	if off < 0 {
		return false
	}
	// Walk the labels to the root label, which must be the last octet; the
	// suffix must begin exactly where a label does.
	pos, aligned := 0, false
	for ; pos < len(qname) && qname[pos] != 0 && qname[pos] <= 63; pos += 1 + int(qname[pos]) {
		aligned = aligned || pos == off
	}
	if pos != len(qname)-1 || qname[pos] != 0 || !aligned && pos != off {
		return false
	}
	for i := range s.Suffix {
		if foldByte(qname[off+i]) != s.Suffix[i] {
			return false
		}
	}
	return true
}

// Matches reports whether a (qname, qtype, flags) triple falls under the
// signature.
func (s Signature) Matches(qname []byte, qtype, flags uint16) bool {
	if s.QType != 0 && s.QType != qtype {
		return false
	}
	if flags&s.FlagMask != s.FlagBits {
		return false
	}
	return s.MatchesName(qname)
}

// Covers reports whether s matches everything o matches (o is at least as
// specific), so an Add of o can be folded into an existing s.
func (s Signature) Covers(o Signature) bool {
	if s.QType != 0 && s.QType != o.QType {
		return false
	}
	if s.FlagMask&o.FlagMask != s.FlagMask || o.FlagBits&s.FlagMask != s.FlagBits {
		return false
	}
	return s.MatchesName(o.Suffix)
}

// Equal reports structural equality.
func (s Signature) Equal(o Signature) bool {
	if s.QType != o.QType || s.FlagMask != o.FlagMask || s.FlagBits != o.FlagBits ||
		len(s.Suffix) != len(o.Suffix) {
		return false
	}
	for i := range s.Suffix {
		if s.Suffix[i] != o.Suffix[i] {
			return false
		}
	}
	return true
}

// SuffixString renders the wire-form suffix as a dotted name for logs and
// the quarantine snapshot ("qod-trigger.ex.test.").
func (s Signature) SuffixString() string {
	var b strings.Builder
	pos := 0
	for pos < len(s.Suffix) {
		c := int(s.Suffix[pos])
		if c == 0 {
			break
		}
		if c > 63 || pos+1+c > len(s.Suffix) {
			return "<malformed>"
		}
		b.Write(s.Suffix[pos+1 : pos+1+c])
		b.WriteByte('.')
		pos += 1 + c
	}
	if b.Len() == 0 {
		return "."
	}
	return b.String()
}

// Entry is one quarantined signature. Fields are guarded by the owning
// Quarantine's lock; callers treat entries as opaque handles for Acquit.
type Entry struct {
	sig     Signature
	expires time.Time
	strikes int
}

// SignatureStatus is one row of a quarantine snapshot.
type SignatureStatus struct {
	Suffix  string
	QType   uint16
	Strikes int
	Expires time.Time
}

// Quarantine is the bounded signature set the serving path consults before
// decoding. Safe for concurrent use; Len is a single atomic load so the
// empty case (the steady state) costs nothing on the hot path.
type Quarantine struct {
	mu      sync.Mutex
	n       atomic.Int32
	max     int
	ttl     time.Duration
	entries []*Entry
	// admitted counts distinct signatures ever quarantined (fresh Adds).
	admitted atomic.Uint64
}

// Quarantine defaults.
const (
	DefaultQuarantineMax = 128
	DefaultQuarantineTTL = 30 * time.Second
	// maxStrikeShift caps the exponential TTL growth of repeat offenders.
	maxStrikeShift = 5
)

// NewQuarantine builds a quarantine bounded to max signatures, each active
// for ttl before probationary re-admission (0s mean the defaults).
func NewQuarantine(max int, ttl time.Duration) *Quarantine {
	if max <= 0 {
		max = DefaultQuarantineMax
	}
	if ttl <= 0 {
		ttl = DefaultQuarantineTTL
	}
	return &Quarantine{max: max, ttl: ttl}
}

// Len reports the current signature count (lock-free).
func (q *Quarantine) Len() int { return int(q.n.Load()) }

// Cap reports the configured signature capacity.
func (q *Quarantine) Cap() int { return q.max }

// Admitted reports how many distinct signatures have ever been quarantined.
func (q *Quarantine) Admitted() uint64 { return q.admitted.Load() }

// Check consults the set for one query. The returned entry is non-nil for
// Blocked and Probation; a Probation caller must Acquit the entry if the
// query completes without panicking.
func (q *Quarantine) Check(qname []byte, qtype, flags uint16, now time.Time) (*Entry, Outcome) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.entries {
		if !e.sig.Matches(qname, qtype, flags) {
			continue
		}
		if now.After(e.expires) {
			return e, Probation
		}
		return e, Blocked
	}
	return nil, Miss
}

// Add quarantines a signature. A signature covered by (or covering) an
// existing entry strikes that entry instead: the strike count grows and the
// TTL doubles per strike (capped), so repeat offenders stay out longer.
// Reports the entry and whether it is fresh.
func (q *Quarantine) Add(sig Signature, now time.Time) (*Entry, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.entries {
		if e.sig.Equal(sig) || e.sig.Covers(sig) || sig.Covers(e.sig) {
			e.strikes++
			shift := e.strikes
			if shift > maxStrikeShift {
				shift = maxStrikeShift
			}
			e.expires = now.Add(q.ttl << uint(shift))
			return e, false
		}
	}
	if len(q.entries) >= q.max {
		q.evictLocked()
	}
	e := &Entry{sig: sig, expires: now.Add(q.ttl)}
	q.entries = append(q.entries, e)
	q.n.Store(int32(len(q.entries)))
	q.admitted.Add(1)
	return e, true
}

// evictLocked drops the earliest-expiring entry to make room.
func (q *Quarantine) evictLocked() {
	if len(q.entries) == 0 {
		return
	}
	victim := 0
	for i, e := range q.entries {
		if e.expires.Before(q.entries[victim].expires) {
			victim = i
		}
	}
	q.entries = append(q.entries[:victim], q.entries[victim+1:]...)
	q.n.Store(int32(len(q.entries)))
}

// Replace swaps a provisional signature for its minimized form (found by
// off-path replay), keeping the entry's expiry and strikes. If the minimal
// signature already exists elsewhere the provisional entry is dropped.
func (q *Quarantine) Replace(old, minimal Signature) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var target *Entry
	for _, e := range q.entries {
		if e.sig.Equal(old) {
			target = e
			break
		}
	}
	if target == nil {
		return
	}
	for _, e := range q.entries {
		if e != target && e.sig.Equal(minimal) {
			q.removeLocked(target)
			return
		}
	}
	target.sig = minimal
}

// Acquit removes an entry whose probation query completed cleanly: the
// pattern is re-admitted to normal service.
func (q *Quarantine) Acquit(e *Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.removeLocked(e)
}

func (q *Quarantine) removeLocked(target *Entry) {
	for i, e := range q.entries {
		if e == target {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.n.Store(int32(len(q.entries)))
			return
		}
	}
}

// Snapshot lists the quarantined signatures (for the snapshot endpoint,
// logs, and the replay drill documented in EXPERIMENTS.md).
func (q *Quarantine) Snapshot() []SignatureStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]SignatureStatus, 0, len(q.entries))
	for _, e := range q.entries {
		out = append(out, SignatureStatus{
			Suffix:  e.sig.SuffixString(),
			QType:   e.sig.QType,
			Strikes: e.strikes,
			Expires: e.expires,
		})
	}
	return out
}
