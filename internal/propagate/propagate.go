// Package propagate is the zone propagation plane: the path that carries
// committed zone versions from the control plane's store out to each edge
// machine's own zone.Store (§3.2 of the paper — in production, hundreds of
// thousands of machines).
//
// Each machine runs a Puller: a pull loop that fetches the controller's
// zone catalog, compares serials against its local store, and closes the
// gap with serial-gated IXFR delta pulls, falling back to a full
// AXFR-style resync when its serial has been evicted from the controller's
// bounded zone.History. Requests travel over an injectable Transport; the
// Link implementation can drop, delay, duplicate, and corrupt responses
// per-link, so chaos scenarios exercise the real failure modes of the
// propagation path. Retries use exponential backoff with jitter
// (internal/backoff); every payload carries a checksum and every applied
// zone version is verified end-to-end against the controller's content
// hash, so corruption is detected and repaired rather than served.
//
// Staleness discipline (§4.2.2): a Puller reports freshness only on a
// fully successful sync cycle (its OnSync hook). Wired to
// nameserver.Server.RecordInput, the existing monitor machinery then does
// the rest — the machine serves bounded-stale data while propagation is
// broken, self-suspends when the staleness window is exceeded, and lifts
// the suspension automatically once the pull loop catches back up.
package propagate

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"strconv"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// Op is a propagation protocol operation.
type Op int

const (
	// OpCatalog asks for every origin the controller serves and its
	// current serial.
	OpCatalog Op = iota
	// OpIXFR asks for the delta from FromSerial to the controller's
	// newest retained version of Origin.
	OpIXFR
	// OpAXFR asks for a full SOA...SOA transfer of Origin.
	OpAXFR
)

func (o Op) String() string {
	switch o {
	case OpCatalog:
		return "catalog"
	case OpIXFR:
		return "ixfr"
	case OpAXFR:
		return "axfr"
	default:
		return "op(" + strconv.Itoa(int(o)) + ")"
	}
}

// Request is one pull-protocol request.
type Request struct {
	Op         Op
	Origin     dnswire.Name
	FromSerial uint32
}

// Response is one pull-protocol response. Sum covers the payload fields
// and is verified by the puller; ZoneSum is the content hash of the full
// target zone version so an applied delta is checked end-to-end, not just
// in transit.
type Response struct {
	Op     Op
	Origin dnswire.Name

	// Catalog payload: origin -> current serial.
	Serials map[dnswire.Name]uint32

	// IXFR payload. Resync means the requested serial cannot be served a
	// delta (evicted or unknown) and the client must take a full
	// transfer.
	Delta  zone.Delta
	Resync bool

	// AXFR payload: a SOA ... SOA record stream, nil when the origin is
	// not (or no longer) served — the client deletes its copy then.
	Records []dnswire.RR

	// ToSerial is the serial of the version this response brings the
	// client to (IXFR/AXFR).
	ToSerial uint32

	// Sum is the payload checksum, set by the source.
	Sum uint64
	// ZoneSum is the content hash of the complete target zone version
	// (IXFR/AXFR with records; zero otherwise).
	ZoneSum uint64
}

func hashStr(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// sealer hashes the records of a payload, each on its own, through one
// FNV-1a state and one packing buffer that it reuses from record to record.
type sealer struct {
	h   hash.Hash64
	buf []byte
}

func newSealer() *sealer { return &sealer{h: fnv.New64a()} }

// record hashes tag, rr's owner in wire form and its packed body
// (dnswire.AppendRRBody's TYPE CLASS TTL RDLENGTH RDATA). A record that
// will not pack hashes by owner and TYPE alone: no zone can hold it, so
// FromTransfer or Apply refuses its payload whatever the seal says.
func (s *sealer) record(tag string, rr dnswire.RR) uint64 {
	s.buf = rr.Header().Name.AppendWire(append(s.buf[:0], tag...))
	if b, err := dnswire.AppendRRBody(s.buf, rr); err == nil {
		s.buf = b
	} else {
		s.buf = binary.BigEndian.AppendUint16(s.buf, uint16(rr.Header().Type))
	}
	s.h.Reset()
	s.h.Write(s.buf)
	return s.h.Sum64()
}

// recordsSum hashes a record multiset order-independently: records are
// unique within a zone (the store dedups by packed body), so XOR of
// per-record hashes plus the count is a faithful multiset hash and is
// insensitive to insertion-order differences between the two ends.
func recordsSum(s *sealer, rrs []dnswire.RR) uint64 {
	var sum uint64
	for _, rr := range rrs {
		sum ^= s.record("", rr)
	}
	return sum ^ hashStr("n="+strconv.Itoa(len(rrs)))
}

// ZoneSum is the end-to-end content hash of a zone version:
// zone.Zone.ContentSum, 0 for no zone.
func ZoneSum(z *zone.Zone) uint64 {
	if z == nil {
		return 0
	}
	return z.ContentSum()
}

// payloadSum computes the transit checksum for a response. Catalog entries
// are XORed in one hash each, so the map's iteration order cannot change
// the sum.
func payloadSum(r *Response) uint64 {
	sum := hashStr("op:" + r.Op.String() + ":" + r.Origin.String() +
		":to=" + strconv.FormatUint(uint64(r.ToSerial), 10) +
		":zs=" + strconv.FormatUint(r.ZoneSum, 10))
	if r.Resync {
		sum ^= hashStr("resync")
	}
	for o, serial := range r.Serials {
		sum ^= hashStr("cat:" + o.String() + "=" + strconv.FormatUint(uint64(serial), 10))
	}
	sum ^= hashStr("delta:" + strconv.FormatUint(uint64(r.Delta.FromSerial), 10) +
		"->" + strconv.FormatUint(uint64(r.Delta.ToSerial), 10))
	s := newSealer()
	for _, rr := range r.Delta.Deleted {
		sum ^= s.record("del:", rr)
	}
	for _, rr := range r.Delta.Added {
		sum ^= s.record("add:", rr)
	}
	if r.Records != nil {
		sum ^= hashStr("axfr") ^ recordsSum(s, r.Records)
	}
	return sum
}

// Seal stamps the payload checksum onto a response. Sources call it last.
func (r *Response) Seal() { r.Sum = payloadSum(r) }

// Verify reports whether the payload matches its checksum.
func (r *Response) Verify() bool { return r.Sum == payloadSum(r) }
