//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// encodeSockaddr writes ap into b and returns the socklen.
func encodeSockaddr(b []byte, ap netip.AddrPort) uint32 {
	port := ap.Port()
	b[2], b[3] = byte(port>>8), byte(port)
	if a := ap.Addr(); a.Is4() || a.Is4In6() {
		*(*uint16)(unsafe.Pointer(&b[0])) = syscall.AF_INET
		a4 := a.Unmap().As4()
		copy(b[4:8], a4[:])
		return syscall.SizeofSockaddrInet4
	}
	*(*uint16)(unsafe.Pointer(&b[0])) = syscall.AF_INET6
	a16 := ap.Addr().As16()
	b[4], b[5], b[6], b[7] = 0, 0, 0, 0 // flowinfo
	copy(b[8:24], a16[:])
	b[24], b[25], b[26], b[27] = 0, 0, 0, 0 // scope id
	return syscall.SizeofSockaddrInet6
}

// StageAddr copies payload into send slot j addressed to dst.
func (c *Conn) StageAddr(j int, payload []byte, dst netip.AddrPort) bool {
	if len(payload) > c.slot {
		return false
	}
	copy(c.sbuf[j*c.slot:], payload)
	c.siovs[j].Len = uint64(len(payload))
	c.shdrs[j].hdr.Name = &c.snames[j*nameSize]
	c.shdrs[j].hdr.Namelen = encodeSockaddr(c.snames[j*nameSize:], dst)
	return true
}

// LoadPacket synthesizes a received datagram in slot i — payload plus
// source — as if ReadBatch had just filled it. Tests and benchmarks use
// it to exercise batch processing without a kernel in the loop.
func (c *Conn) LoadPacket(i int, payload []byte, src netip.AddrPort) {
	n := copy(c.rbuf[i*c.slot:(i+1)*c.slot], payload)
	c.rhdrs[i].len = uint32(n)
	c.rhdrs[i].hdr.Flags = 0
	c.rhdrs[i].hdr.Namelen = encodeSockaddr(c.rnames[i*nameSize:], src)
}
