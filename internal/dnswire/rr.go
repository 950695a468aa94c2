package dnswire

import (
	"fmt"
	"net/netip"
	"strings"
)

// RR is a decoded resource record. Concrete types carry parsed RDATA;
// records of unimplemented types decode to *RawRecord.
type RR interface {
	// Header returns the record's shared fields.
	Header() *RRHeader
	// String renders the record in zone-file-like presentation format.
	String() string
	// packRData appends the RDATA encoding with every name written in full
	// and returns the extended buffer (compressor.appendRData compresses the
	// names the RFC allows to be compressed).
	packRData(buf []byte) ([]byte, error)
	// Copy returns a deep copy so cached/stored records cannot alias
	// mutable state.
	Copy() RR
}

// RRHeader is the common preamble of every resource record.
type RRHeader struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
}

func (h *RRHeader) Header() *RRHeader { return h }

func (h *RRHeader) headerString() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s", h.Name, h.TTL, h.Class, h.Type)
}

// A is an IPv4 address record.
type A struct {
	RRHeader
	Addr netip.Addr // must be IPv4
}

func (r *A) String() string { return r.headerString() + "\t" + r.Addr.String() }
func (r *A) Copy() RR       { c := *r; return &c }
func (r *A) packRData(buf []byte) ([]byte, error) {
	if !r.Addr.Is4() {
		return nil, fmt.Errorf("dnswire: A record %s has non-IPv4 address %s", r.Name, r.Addr)
	}
	b := r.Addr.As4()
	return append(buf, b[:]...), nil
}

// AAAA is an IPv6 address record.
type AAAA struct {
	RRHeader
	Addr netip.Addr // must be IPv6
}

func (r *AAAA) String() string { return r.headerString() + "\t" + r.Addr.String() }
func (r *AAAA) Copy() RR       { c := *r; return &c }
func (r *AAAA) packRData(buf []byte) ([]byte, error) {
	if !r.Addr.Is6() || r.Addr.Is4In6() {
		return nil, fmt.Errorf("dnswire: AAAA record %s has non-IPv6 address %s", r.Name, r.Addr)
	}
	b := r.Addr.As16()
	return append(buf, b[:]...), nil
}

// NS is a nameserver delegation record.
type NS struct {
	RRHeader
	Target Name
}

func (r *NS) String() string { return r.headerString() + "\t" + r.Target.String() }
func (r *NS) Copy() RR       { c := *r; return &c }
func (r *NS) packRData(buf []byte) ([]byte, error) {
	return r.Target.appendWire(buf)
}

// CNAME is a canonical-name alias record.
type CNAME struct {
	RRHeader
	Target Name
}

func (r *CNAME) String() string { return r.headerString() + "\t" + r.Target.String() }
func (r *CNAME) Copy() RR       { c := *r; return &c }
func (r *CNAME) packRData(buf []byte) ([]byte, error) {
	return r.Target.appendWire(buf)
}

// PTR is a pointer record.
type PTR struct {
	RRHeader
	Target Name
}

func (r *PTR) String() string { return r.headerString() + "\t" + r.Target.String() }
func (r *PTR) Copy() RR       { c := *r; return &c }
func (r *PTR) packRData(buf []byte) ([]byte, error) {
	return r.Target.appendWire(buf)
}

// SOA is a start-of-authority record.
type SOA struct {
	RRHeader
	MName   Name // primary nameserver
	RName   Name // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL (RFC 2308)
}

func (r *SOA) String() string {
	return fmt.Sprintf("%s\t%s %s %d %d %d %d %d", r.headerString(),
		r.MName, r.RName, r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}
func (r *SOA) Copy() RR { c := *r; return &c }
func (r *SOA) packRData(buf []byte) ([]byte, error) {
	return r.appendRData(buf, nil)
}

// appendRData packs the RDATA with its two names compressed through c (in
// full when c is nil).
func (r *SOA) appendRData(buf []byte, c *compressor) ([]byte, error) {
	var err error
	if buf, err = c.appendName(buf, r.MName); err != nil {
		return nil, err
	}
	if buf, err = c.appendName(buf, r.RName); err != nil {
		return nil, err
	}
	buf = appendUint32(buf, r.Serial)
	buf = appendUint32(buf, r.Refresh)
	buf = appendUint32(buf, r.Retry)
	buf = appendUint32(buf, r.Expire)
	buf = appendUint32(buf, r.Minimum)
	return buf, nil
}

// MX is a mail-exchanger record.
type MX struct {
	RRHeader
	Preference uint16
	Exchange   Name
}

func (r *MX) String() string {
	return fmt.Sprintf("%s\t%d %s", r.headerString(), r.Preference, r.Exchange)
}
func (r *MX) Copy() RR { c := *r; return &c }
func (r *MX) packRData(buf []byte) ([]byte, error) {
	return r.Exchange.appendWire(appendUint16(buf, r.Preference))
}

// TXT is a text record holding one or more character-strings.
type TXT struct {
	RRHeader
	Texts []string
}

func (r *TXT) String() string {
	parts := make([]string, len(r.Texts))
	for i, t := range r.Texts {
		parts[i] = fmt.Sprintf("%q", t)
	}
	return r.headerString() + "\t" + strings.Join(parts, " ")
}
func (r *TXT) Copy() RR {
	c := *r
	c.Texts = append([]string(nil), r.Texts...)
	return &c
}
func (r *TXT) packRData(buf []byte) ([]byte, error) {
	if len(r.Texts) == 0 {
		// A TXT record must carry at least one (possibly empty) string.
		return append(buf, 0), nil
	}
	var err error
	for _, t := range r.Texts {
		if buf, err = AppendCharString(buf, t); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// AppendCharString appends s as a <character-string> (RFC 1035 §3.3): a
// length octet, then s, which may hold at most 255 octets.
func AppendCharString[S string | []byte](buf []byte, s S) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("dnswire: TXT string exceeds 255 octets")
	}
	return append(append(buf, byte(len(s))), s...), nil
}

// SRV is a service-location record (RFC 2782). Its target name is never
// compressed on the wire.
type SRV struct {
	RRHeader
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   Name
}

func (r *SRV) String() string {
	return fmt.Sprintf("%s\t%d %d %d %s", r.headerString(), r.Priority, r.Weight, r.Port, r.Target)
}
func (r *SRV) Copy() RR { c := *r; return &c }
func (r *SRV) packRData(buf []byte) ([]byte, error) {
	buf = appendUint16(buf, r.Priority)
	buf = appendUint16(buf, r.Weight)
	buf = appendUint16(buf, r.Port)
	return r.Target.appendWire(buf)
}

// CAA is a certification-authority-authorization record (RFC 8659).
type CAA struct {
	RRHeader
	Flags uint8
	Tag   string
	Value string
}

func (r *CAA) String() string {
	return fmt.Sprintf("%s\t%d %s %q", r.headerString(), r.Flags, r.Tag, r.Value)
}
func (r *CAA) Copy() RR { c := *r; return &c }
func (r *CAA) packRData(buf []byte) ([]byte, error) {
	return AppendCAA(buf, r.Flags, r.Tag, r.Value)
}

// AppendCAA appends CAA RDATA (RFC 8659 §4.1): the flags, the tag — 1 to
// 255 octets — behind its length octet, and the value, which runs to the
// end of the RDATA.
func AppendCAA[S string | []byte](buf []byte, flags uint8, tag, value S) ([]byte, error) {
	if len(tag) == 0 || len(tag) > 255 {
		return nil, fmt.Errorf("dnswire: CAA tag length %d invalid", len(tag))
	}
	buf = append(buf, flags, byte(len(tag)))
	buf = append(buf, tag...)
	return append(buf, value...), nil
}

// RawRecord carries an RR of a type this codec does not interpret. Its RDATA
// is stored verbatim (with any interior compressed names already impossible
// to re-point, so raw records must only be round-tripped for types whose
// RDATA contains no compressed names).
type RawRecord struct {
	RRHeader
	Data []byte
}

func (r *RawRecord) String() string {
	return fmt.Sprintf("%s\t\\# %d %x", r.headerString(), len(r.Data), r.Data)
}
func (r *RawRecord) Copy() RR {
	c := *r
	c.Data = append([]byte(nil), r.Data...)
	return &c
}
func (r *RawRecord) packRData(buf []byte) ([]byte, error) {
	return append(buf, r.Data...), nil
}

// EDNS0 option codes.
const (
	optCodeECS uint16 = 8 // RFC 7871 edns-client-subnet
)

// ECS is the EDNS Client Subnet option payload (RFC 7871).
type ECS struct {
	Family       uint16 // 1 = IPv4, 2 = IPv6
	SourcePrefix uint8
	ScopePrefix  uint8
	Addr         netip.Addr
}

// EDNSOption is a raw EDNS0 option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// OPTRecord is the EDNS0 pseudo-record (RFC 6891). The header fields encode
// UDP payload size (Class) and extended RCODE/flags (TTL); accessors below
// expose them meaningfully.
type OPTRecord struct {
	RRHeader // Name must be root; Type must be TypeOPT
	Options  []EDNSOption
	// ecs is the buffer SetClientSubnet writes the option's bytes into; the
	// record owns it, and reset keeps it.
	ecs []byte
}

// reset makes r a record with header h and no options, keeping the capacity
// of its option slice and its subnet buffer for the message it is reused in.
func (r *OPTRecord) reset(h RRHeader) {
	*r = OPTRecord{RRHeader: h, Options: r.Options[:0], ecs: r.ecs}
}

// NewOPT builds an OPT record advertising the given UDP payload size.
func NewOPT(udpSize uint16) *OPTRecord {
	return &OPTRecord{RRHeader: RRHeader{Name: Root, Type: TypeOPT, Class: Class(udpSize)}}
}

// UDPSize reports the requestor's advertised UDP payload size.
func (r *OPTRecord) UDPSize() uint16 {
	if uint16(r.Class) < 512 {
		return 512
	}
	return uint16(r.Class)
}

// Version reports the EDNS version.
func (r *OPTRecord) Version() uint8 { return uint8(r.TTL >> 16) }

// Do reports the DNSSEC-OK flag.
func (r *OPTRecord) Do() bool { return r.TTL&(1<<15) != 0 }

// SetClientSubnet attaches an ECS option, replacing any existing one. The
// option's bytes are written into a buffer the record keeps for them, so a
// record reused from message to message (see ResetReply) sets a subnet
// without allocating once it has set one; the bytes of a subnet it set
// before are overwritten.
func (r *OPTRecord) SetClientSubnet(e ECS) error {
	data, err := appendECS(r.ecs[:0], e)
	if err != nil {
		return err
	}
	r.ecs = data
	out := r.Options[:0]
	for _, o := range r.Options {
		if o.Code != optCodeECS {
			out = append(out, o)
		}
	}
	r.Options = append(out, EDNSOption{Code: optCodeECS, Data: data})
	return nil
}

// ClientSubnet extracts the ECS option if present and well-formed.
func (r *OPTRecord) ClientSubnet() (ECS, bool) {
	for _, o := range r.Options {
		if o.Code == optCodeECS {
			e, err := unpackECS(o.Data)
			if err != nil {
				return ECS{}, false
			}
			return e, true
		}
	}
	return ECS{}, false
}

func (r *OPTRecord) String() string {
	return fmt.Sprintf(". OPT udp=%d ver=%d do=%v opts=%d",
		r.UDPSize(), r.Version(), r.Do(), len(r.Options))
}
func (r *OPTRecord) Copy() RR {
	c := *r
	c.ecs = nil
	c.Options = make([]EDNSOption, len(r.Options))
	for i, o := range r.Options {
		c.Options[i] = EDNSOption{Code: o.Code, Data: append([]byte(nil), o.Data...)}
	}
	return &c
}
func (r *OPTRecord) packRData(buf []byte) ([]byte, error) {
	for _, o := range r.Options {
		buf = appendUint16(buf, o.Code)
		buf = appendUint16(buf, uint16(len(o.Data)))
		buf = append(buf, o.Data...)
	}
	return buf, nil
}

// appendECS appends the ECS option data for e to buf, or reports why e
// cannot be encoded (leaving buf untouched).
func appendECS(buf []byte, e ECS) ([]byte, error) {
	if e.Family != 1 && e.Family != 2 {
		return nil, fmt.Errorf("dnswire: ECS family %d invalid", e.Family)
	}
	addrLen := (int(e.SourcePrefix) + 7) / 8
	var raw []byte
	if e.Family == 1 {
		if !e.Addr.Is4() {
			return nil, fmt.Errorf("dnswire: ECS family 1 requires IPv4 address")
		}
		if e.SourcePrefix > 32 {
			return nil, fmt.Errorf("dnswire: ECS IPv4 prefix %d > 32", e.SourcePrefix)
		}
		a := e.Addr.As4()
		raw = a[:]
	} else {
		if !e.Addr.Is6() {
			return nil, fmt.Errorf("dnswire: ECS family 2 requires IPv6 address")
		}
		if e.SourcePrefix > 128 {
			return nil, fmt.Errorf("dnswire: ECS IPv6 prefix %d > 128", e.SourcePrefix)
		}
		a := e.Addr.As16()
		raw = a[:]
	}
	buf = appendUint16(buf, e.Family)
	buf = append(buf, e.SourcePrefix, e.ScopePrefix)
	return append(buf, raw[:addrLen]...), nil
}

func unpackECS(data []byte) (ECS, error) {
	if len(data) < 4 {
		return ECS{}, fmt.Errorf("dnswire: ECS option truncated")
	}
	e := ECS{
		Family:       uint16(data[0])<<8 | uint16(data[1]),
		SourcePrefix: data[2],
		ScopePrefix:  data[3],
	}
	addr := data[4:]
	want := (int(e.SourcePrefix) + 7) / 8
	if len(addr) != want {
		return ECS{}, fmt.Errorf("dnswire: ECS address length %d, want %d", len(addr), want)
	}
	switch e.Family {
	case 1:
		if e.SourcePrefix > 32 {
			return ECS{}, fmt.Errorf("dnswire: ECS IPv4 prefix too long")
		}
		var a4 [4]byte
		copy(a4[:], addr)
		e.Addr = netip.AddrFrom4(a4)
	case 2:
		if e.SourcePrefix > 128 {
			return ECS{}, fmt.Errorf("dnswire: ECS IPv6 prefix too long")
		}
		var a16 [16]byte
		copy(a16[:], addr)
		e.Addr = netip.AddrFrom16(a16)
	default:
		return ECS{}, fmt.Errorf("dnswire: ECS family %d unknown", e.Family)
	}
	return e, nil
}

func appendUint16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
