package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// MaxUDPPayload is the classic 512-octet UDP message limit (RFC 1035 §4.2.1);
// EDNS0 raises it per-message via the OPT record.
const MaxUDPPayload = 512

// compressor does DNS name compression (RFC 1035 §4.1.4) without a map or
// a string: it remembers the message offset of every name suffix written in
// full and finds a repeat by comparing its text against the bytes already
// in the output buffer. Only offsets a 14-bit pointer can carry are kept.
// A suffix is recorded at most once (only after find missed it), so the
// bytes match those of a suffix → offset map (pack_oracle_test.go holds the
// packer to one).
type compressor struct {
	// base is the buffer index where the message header starts (nonzero
	// when packing into a shared buffer); offsets are relative to it.
	base int
	n    int
	offs [32]uint16
	// spill indexes the offsets past len(offs) by a hash of the suffix each
	// spells, so a lookup stays short however many names a large message
	// (a zone transfer, an IXFR delta) holds. It is an open-addressed table
	// of hash<<32 | offset+1 (0 = empty), its length a power of two at least
	// twice spilled; only such messages allocate it.
	spill   []uint64
	spilled int
}

// add records that suffix is written in full at offset off.
func (c *compressor) add(off int, suffix string) {
	if c.n < len(c.offs) {
		c.offs[c.n] = uint16(off)
		c.n++
		return
	}
	if 2*(c.spilled+1) > len(c.spill) {
		old := c.spill
		c.spill = make([]uint64, max(64, 2*len(old)))
		for _, e := range old {
			if e != 0 {
				c.place(e)
			}
		}
	}
	c.place(uint64(suffixHash(suffix))<<32 | uint64(off+1))
	c.spilled++
}

func (c *compressor) place(e uint64) {
	mask := len(c.spill) - 1
	i := int(e>>32) & mask
	for c.spill[i] != 0 {
		i = (i + 1) & mask
	}
	c.spill[i] = e
}

// find returns the offset of a name already written that spells suffix, a
// dot-terminated tail of some name's canonical text.
func (c *compressor) find(buf []byte, suffix string) (int, bool) {
	for _, off := range c.offs[:c.n] {
		if c.spells(buf, int(off), suffix) {
			return int(off), true
		}
	}
	if c.spilled == 0 {
		return 0, false
	}
	h := suffixHash(suffix)
	mask := len(c.spill) - 1
	for i := int(h) & mask; c.spill[i] != 0; i = (i + 1) & mask {
		e := c.spill[i]
		if off := int(uint16(e)) - 1; uint32(e>>32) == h && c.spells(buf, off, suffix) {
			return off, true
		}
	}
	return 0, false
}

// suffixHash is 32-bit FNV-1a over a suffix's text.
func suffixHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// spells reports whether the name written at message offset off — labels
// ending in a root octet or a pointer to an earlier name — is text.
func (c *compressor) spells(buf []byte, off int, text string) bool {
	i := c.base + off
	for {
		if i == len(buf) {
			return false // the name appendName is still writing ("a.a."): unterminated
		}
		l := int(buf[i])
		switch {
		case l&0xC0 == 0xC0:
			i = c.base + ((l&0x3F)<<8 | int(buf[i+1]))
			continue
		case l == 0:
			return text == ""
		case len(text) <= l || text[l] != '.' || string(buf[i+1:i+1+l]) != text[:l]:
			return false
		}
		text = text[l+1:]
		i += 1 + l
	}
}

// appendName writes name to buf, ending in a compression pointer at the
// longest suffix written before. A nil compressor writes names in full,
// which yields position-independent bytes for pre-packed record blobs.
func (c *compressor) appendName(buf []byte, n Name) ([]byte, error) {
	if n.IsZero() {
		return nil, errors.New("dnswire: packing zero Name")
	}
	if c == nil || n.IsRoot() {
		return n.appendWire(buf)
	}
	for text := n.s; text != ""; {
		if off, ok := c.find(buf, text); ok {
			return append(buf, 0xC0|byte(off>>8), byte(off)), nil
		}
		if off := len(buf) - c.base; off <= 0x3FFF {
			c.add(off, text)
		}
		l := strings.IndexByte(text, '.')
		buf = append(buf, byte(l))
		buf = append(buf, text[:l]...)
		text = text[l+1:]
	}
	return append(buf, 0), nil
}

// appendRData packs RDATA with its names compressed where RFC 1035 allows.
// The records that carry such names go through a type switch rather than
// the RR interface, so c — stack memory of AppendPack — does not escape.
func (c *compressor) appendRData(buf []byte, rr RR) ([]byte, error) {
	switch r := rr.(type) {
	case *NS:
		return c.appendName(buf, r.Target)
	case *CNAME:
		return c.appendName(buf, r.Target)
	case *PTR:
		return c.appendName(buf, r.Target)
	case *MX:
		return c.appendName(appendUint16(buf, r.Preference), r.Exchange)
	case *SOA:
		return r.appendRData(buf, c)
	}
	return rr.packRData(buf)
}

// AppendRRBody appends a record's owner-less wire form — TYPE, CLASS, TTL,
// RDLENGTH, RDATA with uncompressed RDATA names — so a caller can prefix its
// own owner encoding (a compression pointer into the question name, or a
// literal name) when splicing the body into a response. It refuses a record
// whose bytes UnpackRRBody would not read back as written: one whose header
// TYPE is not the type of its RDATA, or a RawRecord whose RDATA does not
// parse as the type it claims.
func AppendRRBody(buf []byte, rr RR) ([]byte, error) {
	h := rr.Header()
	if t, typed := rdataType(rr); typed && t != h.Type {
		return nil, fmt.Errorf("dnswire: %s record %s carries %s RDATA", h.Type, h.Name, t)
	}
	start := len(buf)
	buf, err := appendBody(buf, rr, nil)
	if err != nil {
		return nil, err
	}
	if _, raw := rr.(*RawRecord); raw {
		if err := readsBack(h.Name, buf[start:]); err != nil {
			return nil, fmt.Errorf("dnswire: %s record %s does not read back: %w", h.Type, h.Name, err)
		}
	}
	return buf, nil
}

// rdataType reports the TYPE a record's RDATA encodes; typed is false for a
// RawRecord, whose RDATA is whatever its header says.
func rdataType(rr RR) (t Type, typed bool) {
	switch rr.(type) {
	case *A:
		return TypeA, true
	case *AAAA:
		return TypeAAAA, true
	case *NS:
		return TypeNS, true
	case *CNAME:
		return TypeCNAME, true
	case *PTR:
		return TypePTR, true
	case *SOA:
		return TypeSOA, true
	case *MX:
		return TypeMX, true
	case *TXT:
		return TypeTXT, true
	case *SRV:
		return TypeSRV, true
	case *CAA:
		return TypeCAA, true
	case *OPTRecord:
		return TypeOPT, true
	}
	return 0, false
}

// readsBack checks that a record body decodes and, when it decodes as a
// type this codec interprets, packs back to the same bytes.
func readsBack(owner Name, body []byte) error {
	rr, _, err := UnpackRRBody(owner, body)
	if err != nil {
		return err
	}
	if _, raw := rr.(*RawRecord); raw {
		return nil
	}
	again, err := appendBody(nil, rr, nil)
	if err == nil && string(again) != string(body) {
		err = fmt.Errorf("RDATA reads back as %s", rr)
	}
	return err
}

// Pack serializes the message into wire format. Section counts are derived
// from the slices; the header's QD/AN/NS/AR counts need not be set by the
// caller.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack serializes the message into wire format appended to buf,
// which the caller owns (pass buf[:0] to reuse a pooled buffer on the hot
// path). Compression offsets are relative to the message start, so several
// messages may be packed back to back into one buffer. It allocates nothing
// unless buf must grow or the message names more than 32 suffixes.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	base := len(buf)
	// Header.
	buf = appendUint16(buf, m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.OpCode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.Zero {
		flags |= 1 << 6
	}
	if m.AuthenticData {
		flags |= 1 << 5
	}
	if m.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.RCode & 0xF)
	buf = appendUint16(buf, flags)
	buf = appendUint16(buf, uint16(len(m.Questions)))
	buf = appendUint16(buf, uint16(len(m.Answers)))
	buf = appendUint16(buf, uint16(len(m.Authority)))
	buf = appendUint16(buf, uint16(len(m.Additional)))

	c := compressor{base: base}
	var err error
	for _, q := range m.Questions {
		if buf, err = c.appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = appendUint16(buf, uint16(q.Type))
		buf = appendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [...][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = c.appendName(buf, rr.Header().Name); err != nil {
				return nil, err
			}
			if buf, err = appendBody(buf, rr, &c); err != nil {
				return nil, err
			}
		}
	}
	if len(buf)-base > 0xFFFF {
		return nil, fmt.Errorf("dnswire: message length %d exceeds 65535", len(buf)-base)
	}
	return buf, nil
}

// appendBody appends TYPE, CLASS, TTL, RDLENGTH and RDATA, compressing the
// RDATA names RFC 1035 allows to be compressed when c is not nil.
func appendBody(buf []byte, rr RR, c *compressor) ([]byte, error) {
	h := rr.Header()
	start := len(buf)
	buf = BeginRRBody(buf, h.Type, h.Class, h.TTL)
	var err error
	if c != nil {
		buf, err = c.appendRData(buf, rr)
	} else {
		buf, err = rr.packRData(buf)
	}
	if err != nil {
		return nil, err
	}
	return EndRRBody(buf, start)
}

// BeginRRBody appends a record body's TYPE, CLASS and TTL and reserves its
// RDLENGTH: the caller appends the RDATA, then EndRRBody fills RDLENGTH in.
func BeginRRBody(buf []byte, t Type, c Class, ttl uint32) []byte {
	buf = appendUint16(buf, uint16(t))
	buf = appendUint16(buf, uint16(c))
	return append(appendUint32(buf, ttl), 0, 0)
}

// EndRRBody sets the RDLENGTH of the record body BeginRRBody began at
// buf[start:] to the RDATA appended since, refusing RDATA longer than 65535
// octets.
func EndRRBody(buf []byte, start int) ([]byte, error) {
	rdlen := len(buf) - start - 10
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: RDATA length %d exceeds 65535", rdlen)
	}
	buf[start+8] = byte(rdlen >> 8)
	buf[start+9] = byte(rdlen)
	return buf, nil
}

// AppendTruncateTo packs the response fitted to the given payload size,
// appended to buf (pass buf[:0] to reuse a pooled buffer): answer, authority
// and additional records are dropped whole (preserving any OPT record) and
// the TC bit is set if anything was removed. It packs iteratively; for the
// platform's small responses one or two passes suffice. A message that fits
// is returned as it is, so the common case copies nothing; only a
// truncation pass works on a copy, leaving m untouched.
func (m *Message) AppendTruncateTo(size int, buf []byte) (*Message, []byte, error) {
	base := len(buf)
	wire, err := m.AppendPack(buf)
	if err != nil {
		return nil, nil, err
	}
	if len(wire)-base <= size {
		return m, wire, nil
	}
	out := *m
	out.Answers = append([]RR(nil), m.Answers...)
	out.Authority = append([]RR(nil), m.Authority...)
	out.Additional = append([]RR(nil), m.Additional...)
	for {
		if !dropOne(&out) {
			return nil, nil, fmt.Errorf("dnswire: cannot fit message into %d octets", size)
		}
		out.Truncated = true
		// Keep any capacity grown by the oversized pass.
		if wire, err = out.AppendPack(wire[:base]); err != nil {
			return nil, nil, err
		}
		if len(wire)-base <= size {
			return &out, wire, nil
		}
	}
}

// dropOne removes the last droppable record, additional-section first (but
// never the OPT), then authority, then answers. Reports false when nothing
// remains to drop.
func dropOne(m *Message) bool {
	for i := len(m.Additional) - 1; i >= 0; i-- {
		if _, isOPT := m.Additional[i].(*OPTRecord); isOPT {
			continue
		}
		m.Additional = append(m.Additional[:i], m.Additional[i+1:]...)
		return true
	}
	if n := len(m.Authority); n > 0 {
		m.Authority = m.Authority[:n-1]
		return true
	}
	if n := len(m.Answers); n > 0 {
		m.Answers = m.Answers[:n-1]
		return true
	}
	return false
}
