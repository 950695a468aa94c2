package dnswire

// This file is the zero-allocation wire fast path: a one-pass, bounds-checked
// summary of the common query shape (one question, optionally one OPT) that
// the socket server consults before committing to a full Unpack. Anything
// unusual — compressed question names, extra records, malformed options —
// reports !ok and falls back to the slow path, so the fast path never has to
// be lenient.

// QueryView is an allocation-free summary of a standard query: header fields,
// the question (whose name starts at byte 12 and runs QnameLen bytes,
// terminal zero included), and the OPT essentials. It holds offsets into the
// original packet rather than decoded values, so building one costs no heap.
type QueryView struct {
	ID       uint16
	Flags    uint16
	QnameLen int
	QType    Type
	QClass   Class
	HasOPT   bool
	UDPSize  uint16
	// HasCookie / HasECS report whether the OPT carries a COOKIE (RFC 7873)
	// or Client Subnet (RFC 7871) option — both force the slow path because
	// their answers are client-specific.
	HasCookie bool
	HasECS    bool
}

// Response reports the QR bit.
func (v QueryView) Response() bool { return v.Flags&(1<<15) != 0 }

// OpCode extracts the operation code.
func (v QueryView) OpCode() OpCode { return OpCode(v.Flags >> 11 & 0xF) }

// RecursionDesired reports the RD bit.
func (v QueryView) RecursionDesired() bool { return v.Flags&(1<<8) != 0 }

// qnameStart is the fixed offset of the (first) question name.
const qnameStart = 12

// QnameWire returns the question-name bytes (wire form, terminal root label
// included) of the packet the view was parsed from. The slice aliases wire.
func (v QueryView) QnameWire(wire []byte) []byte {
	return wire[qnameStart : qnameStart+v.QnameLen]
}

// ParseQueryView summarizes a wire-format query without allocating. It
// reports ok only for the canonical query shape: exactly one question with
// an uncompressed name, no answer/authority records, and at most one
// additional record which must be a well-formed OPT. Everything else —
// including trailing garbage — reports !ok and must take the full Unpack
// path (which produces the proper error handling).
func ParseQueryView(wire []byte) (QueryView, bool) {
	var v QueryView
	if len(wire) < qnameStart {
		return v, false
	}
	v.ID = uint16(wire[0])<<8 | uint16(wire[1])
	v.Flags = uint16(wire[2])<<8 | uint16(wire[3])
	qd := int(wire[4])<<8 | int(wire[5])
	an := int(wire[6])<<8 | int(wire[7])
	ns := int(wire[8])<<8 | int(wire[9])
	ar := int(wire[10])<<8 | int(wire[11])
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return v, false
	}
	// Question name: plain labels only (queries never need compression).
	off := qnameStart
	for {
		if off >= len(wire) {
			return v, false
		}
		c := int(wire[off])
		if c == 0 {
			off++
			break
		}
		if c > maxLabelLen { // compression pointer or reserved label type
			return v, false
		}
		off += 1 + c
	}
	v.QnameLen = off - qnameStart
	if v.QnameLen > maxNameWire {
		return v, false
	}
	if off+4 > len(wire) {
		return v, false
	}
	v.QType = Type(uint16(wire[off])<<8 | uint16(wire[off+1]))
	v.QClass = Class(uint16(wire[off+2])<<8 | uint16(wire[off+3]))
	off += 4
	if ar == 1 {
		// OPT pseudo-record: root name, TYPE=OPT, CLASS=UDP size, 4 TTL
		// bytes, then RDLEN-framed options.
		if off+11 > len(wire) || wire[off] != 0 {
			return v, false
		}
		typ := Type(uint16(wire[off+1])<<8 | uint16(wire[off+2]))
		if typ != TypeOPT {
			return v, false
		}
		v.HasOPT = true
		v.UDPSize = uint16(wire[off+3])<<8 | uint16(wire[off+4])
		rdlen := int(wire[off+9])<<8 | int(wire[off+10])
		off += 11
		end := off + rdlen
		if end > len(wire) {
			return v, false
		}
		for off < end {
			if off+4 > end {
				return v, false
			}
			code := uint16(wire[off])<<8 | uint16(wire[off+1])
			olen := int(wire[off+2])<<8 | int(wire[off+3])
			off += 4
			if off+olen > end {
				return v, false
			}
			switch code {
			case optCodeCookie:
				v.HasCookie = true
			case optCodeECS:
				v.HasECS = true
			}
			off += olen
		}
	}
	if off != len(wire) {
		return v, false
	}
	return v, true
}

// AppendQnameFolded appends the query's name bytes to dst with ASCII
// uppercase folded to lowercase, walking label by label and validating the
// same alphabet ParseName accepts (letters, digits, hyphen, underscore,
// asterisk). It reports false when any label carries a byte the text parser
// would reject — the caller must fall back to the full decode path so those
// queries keep producing the decode path's error handling (FormErr), not a
// lookup miss. Folding label-aware (rather than blindly) is what makes the
// validation sound: length octets 42 ('*') or 45 ('-') are never mistaken
// for content bytes.
func (v QueryView) AppendQnameFolded(dst, wire []byte) ([]byte, bool) {
	q := wire[qnameStart : qnameStart+v.QnameLen]
	off := 0
	for q[off] != 0 {
		l := int(q[off])
		dst = append(dst, q[off])
		off++
		for end := off + l; off < end; off++ {
			c := q[off]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			ok := c == '-' || c == '_' || c == '*' ||
				('a' <= c && c <= 'z') || ('0' <= c && c <= '9')
			if !ok {
				return dst, false
			}
			dst = append(dst, c)
		}
	}
	return append(dst, 0), true
}

// NameFromFoldedWire converts wire-form name bytes that have already been
// folded and validated by AppendQnameFolded into a canonical Name. It is the
// inverse of Name.AppendWire and allocates exactly the backing string.
func NameFromFoldedWire(b []byte) (Name, bool) {
	if len(b) == 0 || len(b) > maxNameWire {
		return Name{}, false
	}
	if len(b) == 1 {
		return Root, b[0] == 0
	}
	var buf [maxNameWire]byte
	text := buf[:0]
	off := 0
	for {
		if off >= len(b) {
			return Name{}, false
		}
		l := int(b[off])
		if l == 0 {
			break
		}
		off++
		if l > maxLabelLen || off+l > len(b) {
			return Name{}, false
		}
		text = append(text, b[off:off+l]...)
		text = append(text, '.')
		off += l
	}
	return Name{s: string(text)}, off == len(b)-1
}

// AppendCacheKey appends the canonical hot-cache key for the query to dst:
// the case-folded qname wire bytes, the qtype and qclass, and the caller's
// payload size class. Length octets (1..63) never collide with the folded
// range, so the whole name is folded blindly.
func (v QueryView) AppendCacheKey(dst, wire []byte, sizeClass byte) []byte {
	q := wire[qnameStart : qnameStart+v.QnameLen]
	for i := 0; i < len(q); i++ {
		c := q[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return append(dst,
		byte(v.QType>>8), byte(v.QType),
		byte(v.QClass>>8), byte(v.QClass),
		sizeClass)
}
