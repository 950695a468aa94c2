//go:build !linux || (!amd64 && !arm64)

package udpbatch

import "net/netip"

// StageAddr copies payload into send slot j addressed to dst.
func (c *Conn) StageAddr(j int, payload []byte, dst netip.AddrPort) bool {
	if !c.stage(j, payload) {
		return false
	}
	c.sdsts[j], c.sconn[j] = dst, false
	return true
}

// LoadPacket synthesizes a received datagram (slot 0 only).
func (c *Conn) LoadPacket(i int, payload []byte, src netip.AddrPort) {
	if i != 0 {
		return
	}
	c.rlen = copy(c.rbuf, payload)
	c.rsrc = src
}
