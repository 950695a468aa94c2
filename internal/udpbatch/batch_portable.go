//go:build !linux || (!amd64 && !arm64)

package udpbatch

import (
	"net"
	"net/netip"
)

// Supported: no batched datagram syscalls here; the same API moves one
// datagram per kernel crossing so callers stay portable.
const Supported = false

// MaxBatch still bounds the staging arena (sends are looped, not
// vectored).
const MaxBatch = 512

// Conn is the portable fallback: ReadBatch yields at most one datagram,
// Flush loops over single sends.
type Conn struct {
	uc   *net.UDPConn
	k    int
	slot int

	rbuf  []byte
	rlen  int
	rsrc  netip.AddrPort
	sbuf  []byte
	slens []int
	sdsts []netip.AddrPort
	sconn []bool
}

// New wraps uc with a k-slot staging arena (reads still arrive one at a
// time). k is clamped to [1, MaxBatch].
func New(uc *net.UDPConn, k int) (*Conn, error) {
	if k < 1 {
		k = 1
	}
	if k > MaxBatch {
		k = MaxBatch
	}
	return &Conn{
		uc:    uc,
		k:     k,
		slot:  DefaultSlot,
		rbuf:  make([]byte, DefaultSlot+1), // one spare byte exposes an oversized datagram
		sbuf:  make([]byte, k*DefaultSlot),
		slens: make([]int, k),
		sdsts: make([]netip.AddrPort, k),
		sconn: make([]bool, k),
	}, nil
}

// ReadBatch reads one datagram into slot 0 and returns 1.
func (c *Conn) ReadBatch() (int, error) {
	n, src, err := c.uc.ReadFromUDPAddrPort(c.rbuf)
	if err != nil {
		return 0, err
	}
	c.rlen, c.rsrc = n, src
	return 1, nil
}

// Packet returns the payload in slot i (only slot 0 is ever filled). A
// datagram larger than the slot is reported as nil, never clipped.
func (c *Conn) Packet(i int) []byte {
	if i != 0 || c.rlen > c.slot {
		return nil
	}
	return c.rbuf[:c.rlen]
}

// Src returns slot i's source address.
func (c *Conn) Src(i int) netip.AddrPort {
	if i != 0 {
		return netip.AddrPort{}
	}
	return c.rsrc
}

func (c *Conn) stage(j int, payload []byte) bool {
	if len(payload) > c.slot {
		return false
	}
	copy(c.sbuf[j*c.slot:], payload)
	c.slens[j] = len(payload)
	return true
}

// Stage copies payload into send slot j addressed to receive slot from's
// source.
func (c *Conn) Stage(j int, payload []byte, from int) bool {
	if !c.stage(j, payload) {
		return false
	}
	c.sdsts[j], c.sconn[j] = c.Src(from), false
	return true
}

// StageConnected copies payload into send slot j for a connected socket.
func (c *Conn) StageConnected(j int, payload []byte) bool {
	if !c.stage(j, payload) {
		return false
	}
	c.sconn[j] = true
	return true
}

// Flush sends staged slots [0, m), one syscall each.
func (c *Conn) Flush(m int) (sent, dropped int, err error) {
	for j := 0; j < m; j++ {
		p := c.sbuf[j*c.slot : j*c.slot+c.slens[j]]
		var werr error
		if c.sconn[j] {
			_, werr = c.uc.Write(p)
		} else {
			_, werr = c.uc.WriteToUDPAddrPort(p, c.sdsts[j])
		}
		if werr != nil {
			dropped++
			if err == nil {
				err = werr
			}
			continue
		}
		sent++
	}
	return sent, dropped, err
}
