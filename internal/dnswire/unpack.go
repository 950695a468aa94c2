package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
)

// Unpack errors.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrPointerLoop      = errors.New("dnswire: compression pointer loop")
	ErrTrailingGarbage  = errors.New("dnswire: trailing bytes after message")
)

// parser walks a wire-format message with strict bounds checks.
type parser struct {
	msg []byte
	off int
	// alias lets EDNS option data point into msg instead of being copied.
	alias bool
	// opt, when set, is the record the next OPT decodes into.
	opt *OPTRecord
}

func (p *parser) uint8() (uint8, error) {
	if p.off+1 > len(p.msg) {
		return 0, ErrTruncatedMessage
	}
	v := p.msg[p.off]
	p.off++
	return v, nil
}

func (p *parser) uint16() (uint16, error) {
	if p.off+2 > len(p.msg) {
		return 0, ErrTruncatedMessage
	}
	v := uint16(p.msg[p.off])<<8 | uint16(p.msg[p.off+1])
	p.off += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.off+4 > len(p.msg) {
		return 0, ErrTruncatedMessage
	}
	v := uint32(p.msg[p.off])<<24 | uint32(p.msg[p.off+1])<<16 |
		uint32(p.msg[p.off+2])<<8 | uint32(p.msg[p.off+3])
	p.off += 4
	return v, nil
}

func (p *parser) bytes(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.msg) {
		return nil, ErrTruncatedMessage
	}
	b := p.msg[p.off : p.off+n]
	p.off += n
	return b, nil
}

// name decodes a possibly-compressed domain name starting at the current
// offset. Pointer chains are bounded: each pointer must point strictly
// backwards, which both matches sane encoders and guarantees termination.
func (p *parser) name() (Name, error) {
	var text [maxNameWire]byte
	n := 0
	off := p.off
	jumped := false
	ptrBudget := 64 // generous; strictly-backwards rule already bounds chains
	totalLen := 0
	for {
		if off >= len(p.msg) {
			return Name{}, ErrTruncatedMessage
		}
		c := p.msg[off]
		switch {
		case c == 0:
			off++
			if !jumped {
				p.off = off
			}
			if n == 0 {
				return Root, nil
			}
			return nameFromText(text[:n])
		case c&0xC0 == 0xC0:
			if off+2 > len(p.msg) {
				return Name{}, ErrTruncatedMessage
			}
			ptr := int(c&0x3F)<<8 | int(p.msg[off+1])
			if ptr >= off {
				return Name{}, ErrPointerLoop
			}
			if ptrBudget--; ptrBudget < 0 {
				return Name{}, ErrPointerLoop
			}
			if !jumped {
				p.off = off + 2
				jumped = true
			}
			off = ptr
		case c&0xC0 != 0:
			return Name{}, fmt.Errorf("dnswire: reserved label type %#x", c&0xC0)
		default:
			l := int(c)
			if off+1+l > len(p.msg) {
				return Name{}, ErrTruncatedMessage
			}
			totalLen += l + 1
			if totalLen > maxNameWire {
				return Name{}, errNameTooLong
			}
			n += copy(text[n:], p.msg[off+1:off+1+l])
			text[n] = '.'
			n++
			off += 1 + l
		}
	}
}

// nameFromText makes a Name of decoded label text, dot-terminated: ASCII
// folded to lower case in place, as the wire tiers fold, then validated as
// ParseName validates. The string is the one allocation.
func nameFromText(b []byte) (Name, error) {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	if err := checkName(b); err != nil {
		return Name{}, err
	}
	return Name{s: string(b)}, nil
}

// Unpack parses a wire-format DNS message. It rejects trailing bytes, loops
// in compression pointers, and out-of-bounds lengths. The message shares no
// memory with wire.
func Unpack(wire []byte) (*Message, error) {
	m := &Message{}
	if err := unpack(m, &parser{msg: wire}); err != nil {
		return nil, err
	}
	return m, nil
}

// UnpackInto is Unpack decoding into a caller-owned Message, reusing its
// section slices and an OPT record an earlier decode left in them (hot paths
// keep a Message per worker instead of allocating one per packet): in the
// steady state a query costs one allocation, its name. The message is fully
// reset first. EDNS option data aliases wire, so the message is valid while
// wire is.
func UnpackInto(m *Message, wire []byte) error {
	return unpack(m, &parser{msg: wire, alias: true, opt: spareOPT(m.Additional)})
}

// spareOPT finds an OPT record anywhere in the backing array of a message's
// additional section — past its length too, where a previous message left
// it — for the message's next occupant to reuse. It is how UnpackInto and
// ResetReply reuse one; the record is the message's to overwrite.
func spareOPT(additional []RR) *OPTRecord {
	for _, rr := range additional[:cap(additional)] {
		if o, ok := rr.(*OPTRecord); ok {
			return o
		}
	}
	return nil
}

func unpack(m *Message, p *parser) error {
	wire := p.msg
	m.Header = Header{}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
	id, err := p.uint16()
	if err != nil {
		return err
	}
	flags, err := p.uint16()
	if err != nil {
		return err
	}
	m.ID = id
	m.Response = flags&(1<<15) != 0
	m.OpCode = OpCode(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.Zero = flags&(1<<6) != 0
	m.AuthenticData = flags&(1<<5) != 0
	m.CheckingDisabled = flags&(1<<4) != 0
	m.RCode = RCode(flags & 0xF)

	var counts [4]uint16
	for i := range counts {
		if counts[i], err = p.uint16(); err != nil {
			return err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = p.name(); err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		t, err := p.uint16()
		if err != nil {
			return err
		}
		c, err := p.uint16()
		if err != nil {
			return err
		}
		q.Type, q.Class = Type(t), Class(c)
		m.Questions = append(m.Questions, q)
	}
	sections := [3]*[]RR{&m.Answers, &m.Authority, &m.Additional}
	for si, sec := range sections {
		for i := 0; i < int(counts[si+1]); i++ {
			rr, err := p.rr()
			if err != nil {
				return fmt.Errorf("section %d record %d: %w", si+1, i, err)
			}
			*sec = append(*sec, rr)
		}
	}
	if p.off != len(wire) {
		return ErrTrailingGarbage
	}
	return nil
}

func (p *parser) rr() (RR, error) {
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	return p.body(name)
}

// UnpackRRBody decodes the owner-less record at the front of b — TYPE,
// CLASS, TTL, RDLENGTH and RDATA, as AppendRRBody writes it — as a record
// owned by owner, and reports how many bytes of b it took. Names in the
// RDATA must be written in full; the record shares no memory with b.
func UnpackRRBody(owner Name, b []byte) (RR, int, error) {
	p := parser{msg: b}
	rr, err := p.body(owner)
	return rr, p.off, err
}

// UnpackRRData decodes the record at the front of b that has neither owner
// nor TYPE — CLASS, TTL, RDLENGTH and RDATA, what AppendRRBody writes after
// the TYPE — as a record of type t owned by owner, and reports how many
// bytes of b it took. Names in the RDATA must be written in full; the
// record shares no memory with b.
func UnpackRRData(owner Name, t Type, b []byte) (RR, int, error) {
	p := parser{msg: b}
	rr, err := p.data(owner, t)
	return rr, p.off, err
}

// body decodes a record's TYPE, CLASS, TTL, RDLENGTH and RDATA.
func (p *parser) body(name Name) (RR, error) {
	t16, err := p.uint16()
	if err != nil {
		return nil, err
	}
	return p.data(name, Type(t16))
}

// data decodes a record's CLASS, TTL, RDLENGTH and RDATA, its TYPE t read.
func (p *parser) data(name Name, t Type) (RR, error) {
	c16, err := p.uint16()
	if err != nil {
		return nil, err
	}
	ttl, err := p.uint32()
	if err != nil {
		return nil, err
	}
	rdlen, err := p.uint16()
	if err != nil {
		return nil, err
	}
	h := RRHeader{Name: name, Type: t, Class: Class(c16), TTL: ttl}
	end := p.off + int(rdlen)
	if end > len(p.msg) {
		return nil, ErrTruncatedMessage
	}
	rr, err := p.rdata(h, end)
	if err != nil {
		return nil, err
	}
	if p.off != end {
		return nil, fmt.Errorf("dnswire: %s RDATA length mismatch (at %d, want %d)", h.Type, p.off, end)
	}
	return rr, nil
}

func (p *parser) rdata(h RRHeader, end int) (RR, error) {
	switch h.Type {
	case TypeA:
		b, err := p.bytes(4)
		if err != nil {
			return nil, err
		}
		var a4 [4]byte
		copy(a4[:], b)
		return &A{RRHeader: h, Addr: netip.AddrFrom4(a4)}, nil
	case TypeAAAA:
		b, err := p.bytes(16)
		if err != nil {
			return nil, err
		}
		var a16 [16]byte
		copy(a16[:], b)
		return &AAAA{RRHeader: h, Addr: netip.AddrFrom16(a16)}, nil
	case TypeNS:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &NS{RRHeader: h, Target: n}, nil
	case TypeCNAME:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &CNAME{RRHeader: h, Target: n}, nil
	case TypePTR:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &PTR{RRHeader: h, Target: n}, nil
	case TypeSOA:
		soa := &SOA{RRHeader: h}
		var err error
		if soa.MName, err = p.name(); err != nil {
			return nil, err
		}
		if soa.RName, err = p.name(); err != nil {
			return nil, err
		}
		for _, dst := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			if *dst, err = p.uint32(); err != nil {
				return nil, err
			}
		}
		return soa, nil
	case TypeMX:
		pref, err := p.uint16()
		if err != nil {
			return nil, err
		}
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &MX{RRHeader: h, Preference: pref, Exchange: n}, nil
	case TypeTXT:
		txt := &TXT{RRHeader: h}
		for p.off < end {
			l, err := p.uint8()
			if err != nil {
				return nil, err
			}
			if p.off+int(l) > end {
				return nil, ErrTruncatedMessage
			}
			b, err := p.bytes(int(l))
			if err != nil {
				return nil, err
			}
			txt.Texts = append(txt.Texts, string(b))
		}
		return txt, nil
	case TypeSRV:
		srv := &SRV{RRHeader: h}
		var err error
		if srv.Priority, err = p.uint16(); err != nil {
			return nil, err
		}
		if srv.Weight, err = p.uint16(); err != nil {
			return nil, err
		}
		if srv.Port, err = p.uint16(); err != nil {
			return nil, err
		}
		if srv.Target, err = p.name(); err != nil {
			return nil, err
		}
		return srv, nil
	case TypeCAA:
		flags, err := p.uint8()
		if err != nil {
			return nil, err
		}
		tagLen, err := p.uint8()
		if err != nil {
			return nil, err
		}
		tag, err := p.bytes(int(tagLen))
		if err != nil {
			return nil, err
		}
		if p.off > end {
			return nil, ErrTruncatedMessage
		}
		val, err := p.bytes(end - p.off)
		if err != nil {
			return nil, err
		}
		return &CAA{RRHeader: h, Flags: flags, Tag: string(tag), Value: string(val)}, nil
	case TypeOPT:
		opt := p.opt
		p.opt = nil
		if opt == nil {
			opt = &OPTRecord{}
		}
		opt.reset(h)
		for p.off < end {
			code, err := p.uint16()
			if err != nil {
				return nil, err
			}
			olen, err := p.uint16()
			if err != nil {
				return nil, err
			}
			if p.off+int(olen) > end {
				return nil, ErrTruncatedMessage
			}
			data, err := p.bytes(int(olen))
			if err != nil {
				return nil, err
			}
			if p.alias {
				data = data[:olen:olen]
			} else {
				data = append([]byte(nil), data...)
			}
			opt.Options = append(opt.Options, EDNSOption{Code: code, Data: data})
		}
		return opt, nil
	default:
		data, err := p.bytes(end - p.off)
		if err != nil {
			return nil, err
		}
		return &RawRecord{RRHeader: h, Data: append([]byte(nil), data...)}, nil
	}
}

// NewQuery builds a standard recursive-desired-off query for the platform's
// resolvers and tools.
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, OpCode: OpQuery},
		Questions: []Question{{Name: name, Type: t, Class: ClassINET}},
	}
}

// NewResponse builds a response skeleton echoing the query's ID, question,
// opcode, and RD bit.
func NewResponse(q *Message) *Message {
	r := &Message{}
	r.reply(q)
	return r
}

// ResetReply makes m, in place, the skeleton NewResponse builds for q: its
// sections come back empty but keep their capacity. When q carries EDNS it
// also returns an OPT record advertising udpSize for the reply to echo —
// the one an earlier reply left in m, reset, when there is one — and nil
// otherwise; the caller appends it where it belongs. A message kept per
// worker thus replies without allocating. Records m held are m's to reuse.
func (m *Message) ResetReply(q *Message, udpSize uint16) *OPTRecord {
	opt := spareOPT(m.Additional)
	m.reply(q)
	if q.OPT() == nil {
		return nil
	}
	h := RRHeader{Name: Root, Type: TypeOPT, Class: Class(udpSize)}
	if opt == nil {
		return &OPTRecord{RRHeader: h}
	}
	opt.reset(h)
	return opt
}

// reply resets m to the response skeleton for q.
func (m *Message) reply(q *Message) {
	m.Header = Header{
		ID:               q.ID,
		Response:         true,
		OpCode:           q.OpCode,
		RecursionDesired: q.RecursionDesired,
	}
	m.Questions = append(m.Questions[:0], q.Questions...)
	m.Answers, m.Authority, m.Additional = m.Answers[:0], m.Authority[:0], m.Additional[:0]
}
