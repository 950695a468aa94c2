package dnswire

import (
	"errors"
	"fmt"
)

// MaxUDPPayload is the classic 512-octet UDP message limit (RFC 1035 §4.2.1);
// EDNS0 raises it per-message via the OPT record.
const MaxUDPPayload = 512

// compressionMap tracks name → offset for DNS name compression
// (RFC 1035 §4.1.4). Only offsets representable in a 14-bit pointer are
// recorded. Offsets are relative to base, the buffer index where the
// message header starts (nonzero when packing into a shared buffer).
type compressionMap struct {
	offsets map[string]int
	base    int
}

func newCompressionMap(base int) *compressionMap {
	return &compressionMap{offsets: make(map[string]int), base: base}
}

// appendName writes name to buf using compression pointers where a suffix
// has been emitted before. A nil offsets map disables compression entirely
// (names are written in full), which produces position-independent bytes
// for pre-packed record blobs.
func (cm *compressionMap) appendName(buf []byte, n Name) ([]byte, error) {
	if n.IsZero() {
		return nil, errors.New("dnswire: packing zero Name")
	}
	if cm.offsets == nil {
		// Nothing to look up or record: render straight from the text,
		// without the label split (view compiles pack every name this way).
		return n.appendWire(buf)
	}
	labels := n.Labels()
	for i := range labels {
		suffix := joinFrom(labels, i)
		if off, ok := cm.offsets[suffix]; ok {
			// Emit pointer to the previously-written suffix.
			return append(buf, 0xC0|byte(off>>8), byte(off)), nil
		}
		if off := len(buf) - cm.base; off <= 0x3FFF {
			cm.offsets[suffix] = off
		}
		buf = append(buf, byte(len(labels[i])))
		buf = append(buf, labels[i]...)
	}
	return append(buf, 0), nil
}

// noCompression packs names in full; pre-packed blobs must not contain
// pointers because they are replayed at arbitrary message offsets.
var noCompression = &compressionMap{}

// AppendRR appends one record in fully uncompressed wire form: owner name,
// TYPE, CLASS, TTL, RDLENGTH, RDATA, with no compression pointers anywhere.
// The resulting bytes are position-independent and may be spliced into any
// message (compiled zone views pre-pack glue records this way).
func AppendRR(buf []byte, rr RR) ([]byte, error) {
	h := rr.Header()
	buf, err := h.Name.appendWire(buf)
	if err != nil {
		return nil, err
	}
	return AppendRRBody(buf, rr)
}

// AppendRRBody appends a record's owner-less wire form — TYPE, CLASS, TTL,
// RDLENGTH, RDATA with uncompressed RDATA names — so a caller can prefix its
// own owner encoding (a compression pointer into the question name, or a
// literal name) when splicing the body into a response.
func AppendRRBody(buf []byte, rr RR) ([]byte, error) {
	h := rr.Header()
	buf = appendUint16(buf, uint16(h.Type))
	buf = appendUint16(buf, uint16(h.Class))
	buf = appendUint32(buf, h.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	buf, err := rr.packRData(buf, noCompression)
	if err != nil {
		return nil, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: RDATA length %d exceeds 65535", rdlen)
	}
	buf[lenAt] = byte(rdlen >> 8)
	buf[lenAt+1] = byte(rdlen)
	return buf, nil
}

func joinFrom(labels []string, i int) string {
	s := ""
	for j := i; j < len(labels); j++ {
		s += labels[j] + "."
	}
	return s
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
// messages may be packed back to back into one buffer.
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

	cm := newCompressionMap(base)
	var err error
	for _, q := range m.Questions {
		if buf, err = cm.appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = appendUint16(buf, uint16(q.Type))
		buf = appendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = packRR(buf, rr, cm); err != nil {
				return nil, err
			}
		}
	}
	if len(buf)-base > 0xFFFF {
		return nil, fmt.Errorf("dnswire: message length %d exceeds 65535", len(buf)-base)
	}
	return buf, nil
}

func packRR(buf []byte, rr RR, cm *compressionMap) ([]byte, error) {
	h := rr.Header()
	var err error
	if buf, err = cm.appendName(buf, h.Name); err != nil {
		return nil, err
	}
	buf = appendUint16(buf, uint16(h.Type))
	buf = appendUint16(buf, uint16(h.Class))
	buf = appendUint32(buf, h.TTL)
	// Reserve RDLENGTH; fill after RDATA is known.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	buf, err = rr.packRData(buf, cm)
	if err != nil {
		return nil, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: RDATA length %d exceeds 65535", rdlen)
	}
	buf[lenAt] = byte(rdlen >> 8)
	buf[lenAt+1] = byte(rdlen)
	return buf, nil
}

// TruncateTo produces a copy of the response fitted to the given payload
// size: answer/authority/additional records are dropped whole (preserving
// any OPT record) and the TC bit is set if anything was removed. It packs
// iteratively; for the platform's small responses one or two passes suffice.
func (m *Message) TruncateTo(size int) (*Message, []byte, error) {
	return m.AppendTruncateTo(size, make([]byte, 0, 512))
}

// AppendTruncateTo is TruncateTo packing into a caller-owned buffer: the
// fitted wire is appended to buf (pass buf[:0] to reuse a pooled buffer).
func (m *Message) AppendTruncateTo(size int, buf []byte) (*Message, []byte, error) {
	base := len(buf)
	out := *m
	out.Answers = append([]RR(nil), m.Answers...)
	out.Authority = append([]RR(nil), m.Authority...)
	out.Additional = append([]RR(nil), m.Additional...)
	for {
		wire, err := out.AppendPack(buf[:base])
		if err != nil {
			return nil, nil, err
		}
		if len(wire)-base <= size {
			return &out, wire, nil
		}
		if !dropOne(&out) {
			return nil, nil, fmt.Errorf("dnswire: cannot fit message into %d octets", size)
		}
		out.Truncated = true
		buf = wire // keep any capacity grown by the oversized pass
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
