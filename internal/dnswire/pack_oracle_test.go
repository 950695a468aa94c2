package dnswire

import (
	"errors"
	"fmt"
)

// The map-based packer: a suffix string → offset table built with
// Labels/joinFrom, the way this package compressed names before compressor.
// It is the reference FuzzPackParity holds AppendPack and AppendTruncateTo
// to, byte for byte.

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
// has been emitted before.
func (cm *compressionMap) appendName(buf []byte, n Name) ([]byte, error) {
	if n.IsZero() {
		return nil, errors.New("dnswire: packing zero Name")
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

func joinFrom(labels []string, i int) string {
	s := ""
	for j := i; j < len(labels); j++ {
		s += labels[j] + "."
	}
	return s
}

// oracleAppendPack is AppendPack over the map.
func oracleAppendPack(m *Message, buf []byte) ([]byte, error) {
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
			if buf, err = oraclePackRR(buf, rr, cm); err != nil {
				return nil, err
			}
		}
	}
	if len(buf)-base > 0xFFFF {
		return nil, fmt.Errorf("dnswire: message length %d exceeds 65535", len(buf)-base)
	}
	return buf, nil
}

func oraclePackRR(buf []byte, rr RR, cm *compressionMap) ([]byte, error) {
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
	buf, err = oracleRData(buf, rr, cm)
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

// oracleRData compresses the RDATA names of NS, CNAME, PTR, MX and SOA
// through the map; every other type packs as the codec packs it.
func oracleRData(buf []byte, rr RR, cm *compressionMap) ([]byte, error) {
	var err error
	switch r := rr.(type) {
	case *NS:
		return cm.appendName(buf, r.Target)
	case *CNAME:
		return cm.appendName(buf, r.Target)
	case *PTR:
		return cm.appendName(buf, r.Target)
	case *MX:
		return cm.appendName(appendUint16(buf, r.Preference), r.Exchange)
	case *SOA:
		if buf, err = cm.appendName(buf, r.MName); err != nil {
			return nil, err
		}
		if buf, err = cm.appendName(buf, r.RName); err != nil {
			return nil, err
		}
		buf = appendUint32(buf, r.Serial)
		buf = appendUint32(buf, r.Refresh)
		buf = appendUint32(buf, r.Retry)
		buf = appendUint32(buf, r.Expire)
		return appendUint32(buf, r.Minimum), nil
	}
	return rr.packRData(buf)
}

// oracleAppendTruncateTo is AppendTruncateTo over the map: always a copy,
// repacked until it fits.
func oracleAppendTruncateTo(m *Message, size int, buf []byte) (*Message, []byte, error) {
	base := len(buf)
	out := *m
	out.Answers = append([]RR(nil), m.Answers...)
	out.Authority = append([]RR(nil), m.Authority...)
	out.Additional = append([]RR(nil), m.Additional...)
	for {
		wire, err := oracleAppendPack(&out, buf[:base])
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
