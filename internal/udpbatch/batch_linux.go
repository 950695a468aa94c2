//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// Supported reports that batched UDP syscalls are available: ReadBatch
// and Flush really do move up to K datagrams per kernel crossing.
const Supported = true

// MaxBatch bounds K. Past a few hundred messages the syscall cost is
// fully amortized and the arena is just wasted memory.
const MaxBatch = 512

// mmsghdr mirrors struct mmsghdr. On the 64-bit architectures this file
// builds for, msghdr is 56 bytes and the trailing length field pads the
// struct to 64.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// Conn batches datagram I/O over one UDP socket. See the package comment
// for the concurrency contract; the zero value is not usable, build one
// with New.
type Conn struct {
	uc *net.UDPConn
	rc syscall.RawConn
	k  int
	// slot is the payload capacity per datagram.
	slot int

	// Receive arena: K headers, each with one iovec into its rbuf slot
	// and a sockaddr slot in rnames. rpkts pre-cuts the full-capacity
	// payload views so Packet never reslices from scratch.
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rbuf   []byte
	rpkts  [][]byte
	rnames []byte

	// Send arena, same shape; snames holds explicitly-staged addresses
	// (Stage points headers at the receive slots instead).
	shdrs  []mmsghdr
	siovs  []syscall.Iovec
	sbuf   []byte
	snames []byte

	// Ready-loop closures, built once so the hot path never allocates.
	// Each direction reports through its own result fields: the reader and
	// the writer goroutine never touch the same word.
	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
	rN      int
	rErr    syscall.Errno
	wN      int
	wErr    syscall.Errno
	wOff    int
	wEnd    int
}

// New wraps uc for batches of up to k datagrams of DefaultSlot bytes
// each. k is clamped to [1, MaxBatch].
func New(uc *net.UDPConn, k int) (*Conn, error) {
	if k < 1 {
		k = 1
	}
	if k > MaxBatch {
		k = MaxBatch
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &Conn{uc: uc, rc: rc, k: k, slot: DefaultSlot}
	c.rhdrs = make([]mmsghdr, k)
	c.riovs = make([]syscall.Iovec, k)
	c.rbuf = make([]byte, k*c.slot)
	c.rpkts = make([][]byte, k)
	c.rnames = make([]byte, k*nameSize)
	c.shdrs = make([]mmsghdr, k)
	c.siovs = make([]syscall.Iovec, k)
	c.sbuf = make([]byte, k*c.slot)
	c.snames = make([]byte, k*nameSize)
	for i := 0; i < k; i++ {
		c.rpkts[i] = c.rbuf[i*c.slot : (i+1)*c.slot]
		c.riovs[i].Base = &c.rbuf[i*c.slot]
		c.riovs[i].Len = uint64(c.slot)
		c.rhdrs[i].hdr.Name = &c.rnames[i*nameSize]
		c.rhdrs[i].hdr.Namelen = nameSize
		c.rhdrs[i].hdr.Iov = &c.riovs[i]
		c.rhdrs[i].hdr.Iovlen = 1
		c.siovs[i].Base = &c.sbuf[i*c.slot]
		c.shdrs[i].hdr.Iov = &c.siovs[i]
		c.shdrs[i].hdr.Iovlen = 1
	}
	c.readFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(c.k),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN {
			return false // not readable: park in the poller (deadline-aware)
		}
		c.rErr = e
		c.rN = int(n)
		if e != 0 {
			c.rN = 0
		}
		return true
	}
	c.writeFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&c.shdrs[c.wOff])), uintptr(c.wEnd-c.wOff),
			0, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		c.wErr = e
		c.wN = int(n)
		if e != 0 {
			c.wN = 0
		}
		return true
	}
	return c, nil
}

// ReadBatch blocks until at least one datagram arrives (or the read
// deadline set on the wrapped conn fires, or the conn closes) and
// returns how many of the first K slots the kernel filled.
func (c *Conn) ReadBatch() (int, error) {
	// Namelen is written by the kernel per message; restore capacity so a
	// short sockaddr from the previous batch can't clip this one's.
	for i := range c.rhdrs {
		c.rhdrs[i].hdr.Namelen = nameSize
	}
	if err := c.rc.Read(c.readFn); err != nil {
		return 0, err
	}
	if c.rErr != 0 {
		return 0, c.rErr
	}
	return c.rN, nil
}

// Packet returns the payload received into slot i of the last ReadBatch.
// A datagram larger than the slot was truncated by the kernel and is
// reported as nil — callers must not serve clipped bytes as a query. The
// slice is valid until the next ReadBatch.
func (c *Conn) Packet(i int) []byte {
	if c.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
		return nil
	}
	return c.rpkts[i][:c.rhdrs[i].len]
}

// Src decodes slot i's source address straight from the raw sockaddr
// bytes the kernel wrote — no net.Addr detour, no allocation.
func (c *Conn) Src(i int) netip.AddrPort {
	return decodeSockaddr(c.rnames[i*nameSize:])
}

func decodeSockaddr(b []byte) netip.AddrPort {
	family := *(*uint16)(unsafe.Pointer(&b[0]))
	port := uint16(b[2])<<8 | uint16(b[3])
	switch family {
	case syscall.AF_INET:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(b[4:8])), port)
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16([16]byte(b[8:24])), port)
	}
	return netip.AddrPort{}
}

// Stage copies payload into send slot j, addressed to the source of
// receive slot from (the reply shape: the header aliases the receive
// arena's sockaddr, so the batch must be flushed before the next
// ReadBatch). Reports false when the payload exceeds the slot — the
// caller sends that one unbatched.
func (c *Conn) Stage(j int, payload []byte, from int) bool {
	if len(payload) > c.slot {
		return false
	}
	copy(c.sbuf[j*c.slot:], payload)
	c.siovs[j].Len = uint64(len(payload))
	c.shdrs[j].hdr.Name = &c.rnames[from*nameSize]
	c.shdrs[j].hdr.Namelen = c.rhdrs[from].hdr.Namelen
	return true
}

// StageConnected copies payload into send slot j with no address — for
// sockets connected with DialUDP, where the kernel fills the peer in.
func (c *Conn) StageConnected(j int, payload []byte) bool {
	if len(payload) > c.slot {
		return false
	}
	copy(c.sbuf[j*c.slot:], payload)
	c.siovs[j].Len = uint64(len(payload))
	c.shdrs[j].hdr.Name = nil
	c.shdrs[j].hdr.Namelen = 0
	return true
}

// Flush sends staged slots [0, m). sent counts datagrams the kernel
// accepted; dropped counts datagrams abandoned — one head-of-line
// message per per-datagram sendmmsg error, or the whole remainder when
// the ready-loop itself fails (deadline, closed socket). sent+dropped
// always equals m.
func (c *Conn) Flush(m int) (sent, dropped int, err error) {
	off := 0
	for off < m {
		c.wOff, c.wEnd = off, m
		werr := c.rc.Write(c.writeFn)
		if werr != nil {
			return sent, dropped + (m - off), werr
		}
		if c.wErr != 0 {
			// sendmmsg reports an error only when the first message fails;
			// skip it and press on with the rest of the batch.
			if err == nil {
				err = c.wErr
			}
			dropped++
			off++
			continue
		}
		sent += c.wN
		off += c.wN
		if c.wN == 0 {
			// Defensive: a zero return without errno would otherwise spin.
			return sent, dropped + (m - off), errors.New("udpbatch: sendmmsg sent nothing")
		}
	}
	return sent, dropped, err
}
