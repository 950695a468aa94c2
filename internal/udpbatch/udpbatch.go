// Package udpbatch amortizes UDP syscall crossings: on Linux a Conn
// wraps a *net.UDPConn and moves up to K datagrams per recvmmsg/sendmmsg
// call through a preallocated mmsghdr/iovec/sockaddr arena, decoding
// sources straight from raw sockaddr bytes into netip.AddrPort values.
// Everything on the steady-state path — ReadBatch, Packet, Src, Stage,
// Flush — is allocation-free: the arena and the RawConn ready-loop
// closures are built once in New and reused for the Conn's lifetime.
//
// The batched syscalls are reached through syscall.RawConn and raw
// Syscall6 (this repo deliberately avoids golang.org/x/sys; the syscall
// numbers the frozen syscall package is missing are spelled out per
// architecture, the same way netserve spells out SO_REUSEPORT). On
// platforms without recvmmsg/sendmmsg — anything but linux/amd64 and
// linux/arm64 here — Supported is false and the same API degrades to one
// datagram per syscall. That fallback is what netserve's one UDP loop and
// the benchmark's load generator (bench/gen.go) run on every other
// platform, so it is a serving path, not a stub.
//
// Concurrency: the receive state (ReadBatch/Packet/Src) and
// the send state (Stage*/Flush) are disjoint, down to the fields each
// direction's syscall reports its result through, so one goroutine may
// read while another writes — the shape a load generator wants
// (TestReadWhileWrite holds this under -race). Neither side tolerates two
// goroutines of its own kind.
//
// ReadBatch honors the usual net.Conn deadline plumbing: a
// SetReadDeadline on the wrapped conn (or its expiry) interrupts a
// blocked batch read exactly like it interrupts ReadFromUDPAddrPort,
// which is what lets a server drain or retire batched workers.
package udpbatch

// DefaultSlot is the per-datagram arena slot size. DNS over UDP tops out
// at 4096 octets for any sane EDNS advertisement; a datagram larger than
// the slot is truncated by the kernel and surfaced as oversized (and
// dropped by ReadBatch's callers), never as silently clipped payload.
const DefaultSlot = 4096

// sockaddr slot size: sizeof(struct sockaddr_in6) == 28 covers both
// families the kernel can hand us on a UDP socket.
const nameSize = 28
