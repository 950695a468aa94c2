// Package dnswire implements the DNS wire format of RFC 1035 and the
// extensions this project needs: AAAA (RFC 3596), EDNS0 OPT (RFC 6891), the
// EDNS Client Subnet option (RFC 7871), SRV (RFC 2782), and CAA (RFC 8659).
//
// The codec is written from scratch on the standard library only. It follows
// the decoding-layer style of gopacket: Message.Unpack decodes a datagram
// in one pass with strict bounds checks and a compression-pointer loop guard,
// and Message.Pack serializes with name compression.
package dnswire

import (
	"fmt"
	"strings"
)

// Type is a DNS RR TYPE (or QTYPE) code.
type Type uint16

// Resource record types implemented by this codec.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeOPT   Type = 41
	TypeCAA   Type = 257
	// Query-only types.
	TypeIXFR Type = 251
	TypeAXFR Type = 252
	TypeANY  Type = 255
)

var typeNames = map[Type]string{
	TypeA: "A", TypeNS: "NS", TypeCNAME: "CNAME", TypeSOA: "SOA",
	TypePTR: "PTR", TypeMX: "MX", TypeTXT: "TXT", TypeAAAA: "AAAA",
	TypeSRV: "SRV", TypeOPT: "OPT", TypeCAA: "CAA",
	TypeIXFR: "IXFR", TypeAXFR: "AXFR", TypeANY: "ANY",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// typesByName inverts typeNames: the upper-case mnemonics master files use.
var typesByName = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for t, name := range typeNames {
		m[name] = t
	}
	return m
}()

// TypeFromString parses a textual RR type name ("A", "AAAA", ...), in any
// case. It reports false for unknown names. The usual upper-case spelling is
// one map probe; only a miss folds case.
func TypeFromString(s string) (Type, bool) {
	if t, ok := typesByName[s]; ok {
		return t, true
	}
	for t, name := range typeNames {
		if strings.EqualFold(s, name) {
			return t, true
		}
	}
	return TypeNone, false
}

// Class is a DNS CLASS code. Only IN is used by the platform, but the codec
// round-trips any value.
type Class uint16

// DNS classes.
const (
	ClassINET Class = 1
	ClassANY  Class = 255
)

func (c Class) String() string {
	switch c {
	case ClassINET:
		return "IN"
	case ClassANY:
		return "ANY"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// RCode is a DNS response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1, plus BADVERS).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
	RCodeBadVers  RCode = 16
)

var rcodeNames = map[RCode]string{
	RCodeNoError: "NOERROR", RCodeFormErr: "FORMERR", RCodeServFail: "SERVFAIL",
	RCodeNXDomain: "NXDOMAIN", RCodeNotImp: "NOTIMP", RCodeRefused: "REFUSED",
	RCodeBadVers: "BADVERS",
}

func (r RCode) String() string {
	if s, ok := rcodeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint8(r))
}

// OpCode is a DNS operation code.
type OpCode uint8

// Operation codes.
const (
	OpQuery  OpCode = 0
	OpNotify OpCode = 4
)

// Header is the fixed 12-byte DNS message header (RFC 1035 §4.1.1).
type Header struct {
	ID                 uint16
	Response           bool // QR bit
	OpCode             OpCode
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	Zero               bool // Z (must be zero; carried through for fidelity)
	AuthenticData      bool // AD
	CheckingDisabled   bool // CD
	RCode              RCode
}

// Question is a DNS question section entry.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Message is a full DNS message.
type Message struct {
	Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// OPT returns the EDNS0 OPT pseudo-record from the additional section, or
// nil if absent.
func (m *Message) OPT() *OPTRecord {
	for _, rr := range m.Additional {
		if o, ok := rr.(*OPTRecord); ok {
			return o
		}
	}
	return nil
}

// ClientSubnet returns the EDNS Client Subnet option if present.
func (m *Message) ClientSubnet() (ECS, bool) {
	o := m.OPT()
	if o == nil {
		return ECS{}, false
	}
	return o.ClientSubnet()
}

// QoDMarker reports whether a "query of death" test marker is present. The
// production system writes the payload of a crashing query to disk; our
// simulated nameservers use a TXT-encoded marker label for fault injection
// tests (never set by legitimate workload generators).
const QoDMarkerLabel = "qod-trigger"

func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; id %d %s %s", m.ID, m.RCode, map[bool]string{true: "qr", false: "query"}[m.Response])
	if m.Authoritative {
		b.WriteString(" aa")
	}
	if m.Truncated {
		b.WriteString(" tc")
	}
	for _, q := range m.Questions {
		fmt.Fprintf(&b, "\n;; question: %s", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&b, "\n%s", rr)
	}
	for _, rr := range m.Authority {
		fmt.Fprintf(&b, "\n%s", rr)
	}
	for _, rr := range m.Additional {
		fmt.Fprintf(&b, "\n%s", rr)
	}
	return b.String()
}
