package main

// corpus.go builds the benchmark's inputs from the seed: the hosted zones
// (as master-file text, the only form the server ever sees them in) and the
// per-workload query streams, each query carrying a response oracle computed
// here from the zone layout — never by asking the code under test.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
)

const (
	// numZones is 5x the 4096-entry hot cache and ~78 origins per router
	// shard: big enough that "spread over all zones" never fits a cache.
	numZones     = 20000
	hostsPerZone = 8
	// zipfS skews zone popularity (paper Figs 1-4: a few zones take most
	// queries). rand.Zipf needs s > 1.
	zipfS = 1.1
)

var (
	tlds       = []string{"com", "net", "org", "io", "dev", "app", "info", "biz"}
	hostLabels = [hostsPerZone]string{"www", "api", "mail", "cdn", "img", "app", "static", "m"}
)

// DNS constants the generator and the oracle need; spelled out here so the
// oracle does not lean on internal/dnswire's tables.
const (
	typeA     = 1
	typeCNAME = 5
	typeAAAA  = 28
	typeOPT   = 41
	typeANY   = 255

	rcodeNoError  = 0
	rcodeNXDomain = 3
)

// zoneSpec is everything the oracle knows about one zone. Index in
// corpus.zones is the popularity rank (0 = hottest).
type zoneSpec struct {
	origin string // canonical, dot-terminated
	hosts  [hostsPerZone]hostSpec
	ns     [2][4]byte
	subNS  [2][4]byte
	wild   [4]byte
}

type hostSpec struct {
	v6   bool
	addr [16]byte // first 4 bytes used for A
}

func (h hostSpec) rdata() []byte {
	if h.v6 {
		return h.addr[:16]
	}
	return h.addr[:4]
}

func (h hostSpec) qtype() uint16 {
	if h.v6 {
		return typeAAAA
	}
	return typeA
}

func ip4(b [4]byte) string { return fmt.Sprintf("%d.%d.%d.%d", b[0], b[1], b[2], b[3]) }

func ip6(b [16]byte) string {
	var sb strings.Builder
	for i := 0; i < 16; i += 2 {
		if i > 0 {
			sb.WriteByte(':')
		}
		fmt.Fprintf(&sb, "%x", uint16(b[i])<<8|uint16(b[i+1]))
	}
	return sb.String()
}

// probeAddr is the serial-coded address churn_serve polls to clock how long
// a changelist takes to become visible.
func probeAddr(serial uint32) [4]byte {
	return [4]byte{10, byte(serial >> 16), byte(serial >> 8), byte(serial)}
}

// text renders the zone at the given SOA serial: SOA, 2 NS (+ their A), 8
// A/AAAA hosts, one wildcard, one 2-hop CNAME chain, one delegation with
// glue, and the serial-coded probe record.
func (z *zoneSpec) text(serial uint32) string {
	var sb strings.Builder
	sb.Grow(768)
	fmt.Fprintf(&sb, "$TTL 300\n@ IN SOA ns1 hostmaster ( %d 3600 600 604800 30 )\n", serial)
	sb.WriteString("@ IN NS ns1\n@ IN NS ns2\n")
	fmt.Fprintf(&sb, "ns1 IN A %s\nns2 IN A %s\n", ip4(z.ns[0]), ip4(z.ns[1]))
	for i, h := range z.hosts {
		if h.v6 {
			fmt.Fprintf(&sb, "%s IN AAAA %s\n", hostLabels[i], ip6(h.addr))
		} else {
			fmt.Fprintf(&sb, "%s IN A %s\n", hostLabels[i], ip4([4]byte(h.addr[:4])))
		}
	}
	fmt.Fprintf(&sb, "*.wild IN A %s\n", ip4(z.wild))
	sb.WriteString("alias IN CNAME mid\nmid IN CNAME www\n")
	sb.WriteString("sub IN NS ns1.sub\nsub IN NS ns2.sub\n")
	fmt.Fprintf(&sb, "ns1.sub IN A %s\nns2.sub IN A %s\n", ip4(z.subNS[0]), ip4(z.subNS[1]))
	fmt.Fprintf(&sb, "probe IN A %s\n", ip4(probeAddr(serial)))
	return sb.String()
}

// corpus is the seeded zone set.
type corpus struct {
	zones    []zoneSpec
	texts    []string // serial-1 master text, parallel to zones
	zonesSum [sha256.Size]byte
}

const labelAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

func randLabel(rng *rand.Rand, dst []byte) {
	for i := range dst {
		dst[i] = labelAlphabet[rng.Intn(len(labelAlphabet))]
	}
	// A leading digit is legal but keep names hostname-shaped.
	dst[0] = labelAlphabet[rng.Intn(26)]
}

func randAddr4(rng *rand.Rand) [4]byte {
	return [4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}
}

// buildCorpus generates n zones from the seed. Identical seeds give
// byte-identical zone text in identical order.
func buildCorpus(seed int64, n int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{zones: make([]zoneSpec, n), texts: make([]string, n)}
	seen := make(map[string]struct{}, n)
	sum := sha256.New()
	var lab [12]byte
	for i := range c.zones {
		z := &c.zones[i]
		for {
			l := lab[:5+rng.Intn(6)]
			randLabel(rng, l)
			z.origin = string(l) + "." + tlds[rng.Intn(len(tlds))] + "."
			if _, dup := seen[z.origin]; !dup {
				seen[z.origin] = struct{}{}
				break
			}
		}
		for h := range z.hosts {
			hs := &z.hosts[h]
			hs.v6 = h >= 6 // six A hosts, two AAAA hosts
			if hs.v6 {
				hs.addr[0], hs.addr[1], hs.addr[2], hs.addr[3] = 0x20, 0x01, 0x0d, 0xb8
				rng.Read(hs.addr[4:])
			} else {
				a := randAddr4(rng)
				copy(hs.addr[:4], a[:])
			}
		}
		z.ns = [2][4]byte{randAddr4(rng), randAddr4(rng)}
		z.subNS = [2][4]byte{randAddr4(rng), randAddr4(rng)}
		z.wild = randAddr4(rng)
		c.texts[i] = z.text(1)
		sum.Write([]byte(z.origin))
		sum.Write([]byte(c.texts[i]))
	}
	sum.Sum(c.zonesSum[:0])
	return c
}

// expect is the response oracle for one query: rcode, answer count, and
// the first answer's rdata (raw address bytes, or for CNAME the zone whose
// "mid" name is the expected target).
type expect struct {
	rcode   uint8
	ancount uint8
	rdlen   uint8 // 4 or 16 for address answers, 0 otherwise
	cname   bool  // first answer must be CNAME -> mid.<zones[zone].origin>
	rdata   [16]byte
	zone    uint32
}

// querySet is a pre-packed query stream: wires live back to back in one
// arena so the send loop touches no pointers; IDs are patched at send time.
type querySet struct {
	arena []byte
	off   []uint32 // len(queries)+1
	exp   []expect // nil for unchecked (attack) streams
}

func (q *querySet) len() int          { return len(q.off) - 1 }
func (q *querySet) wire(i int) []byte { return q.arena[q.off[i]:q.off[i+1]] }

// packer appends hand-packed queries; it owns no DNS library state so the
// generator's cost per query stays a few dozen nanoseconds.
type packer struct {
	qs  *querySet
	rng *rand.Rand
	lab [16]byte
}

func newPacker(rng *rand.Rand, n int, checked bool) *packer {
	qs := &querySet{arena: make([]byte, 0, n*56), off: make([]uint32, 1, n+1)}
	if checked {
		qs.exp = make([]expect, 0, n)
	}
	return &packer{qs: qs, rng: rng}
}

type ednsMode uint8

const (
	noEDNS ednsMode = iota
	plainEDNS
	ecsEDNS
)

// add packs one query for labels+origin; labels are the owner's labels
// below the origin, left to right.
func (p *packer) add(origin string, qtype uint16, edns ednsMode, e expect, labels ...string) {
	b := p.qs.arena
	ar := byte(0)
	if edns != noEDNS {
		ar = 1
	}
	b = append(b, 0, 0, 0x00, 0x00, 0, 1, 0, 0, 0, 0, 0, ar)
	for _, l := range labels {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	for rest := origin; rest != ""; {
		i := strings.IndexByte(rest, '.')
		b = append(b, byte(i))
		b = append(b, rest[:i]...)
		rest = rest[i+1:]
	}
	b = append(b, 0, byte(qtype>>8), byte(qtype), 0, 1)
	switch edns {
	case plainEDNS:
		b = append(b, 0, 0, typeOPT, 0x04, 0xD0, 0, 0, 0, 0, 0, 0)
	case ecsEDNS:
		// OPT with one Client Subnet option: family 1, /24 source, scope 0.
		b = append(b, 0, 0, typeOPT, 0x04, 0xD0, 0, 0, 0, 0, 0, 11,
			0, 8, 0, 7, 0, 1, 24, 0, 198, 51, byte(p.rng.Intn(256)))
	}
	p.qs.arena = b
	p.qs.off = append(p.qs.off, uint32(len(b)))
	if p.qs.exp != nil {
		p.qs.exp = append(p.qs.exp, e)
	}
}

func (p *packer) coinEDNS() ednsMode {
	if p.rng.Intn(2) == 0 {
		return plainEDNS
	}
	return noEDNS
}

func (p *packer) label(n int) string {
	randLabel(p.rng, p.lab[:n])
	return string(p.lab[:n])
}

// Query classes. Each returns nothing; the oracle is derived from the zone
// layout in zoneSpec.text.

func (p *packer) host(c *corpus, zi, hi int, edns ednsMode) {
	z := &c.zones[zi]
	h := z.hosts[hi]
	e := expect{rcode: rcodeNoError, ancount: 1, rdlen: uint8(len(h.rdata())), rdata: h.addr}
	p.add(z.origin, h.qtype(), edns, e, hostLabels[hi])
}

func (p *packer) nxdomain(c *corpus, zi, labelLen int, edns ednsMode) {
	p.add(c.zones[zi].origin, typeA, edns, expect{rcode: rcodeNXDomain}, p.label(labelLen))
}

func (p *packer) referral(c *corpus, zi int, edns ednsMode) {
	p.add(c.zones[zi].origin, typeA, edns, expect{rcode: rcodeNoError}, p.label(8), "sub")
}

func (p *packer) wildcard(c *corpus, zi int, edns ednsMode) {
	z := &c.zones[zi]
	e := expect{rcode: rcodeNoError, ancount: 1, rdlen: 4}
	copy(e.rdata[:], z.wild[:])
	p.add(z.origin, typeA, edns, e, p.label(8), "wild")
}

func (p *packer) cnameChain(c *corpus, zi int, edns ednsMode) {
	// alias -> mid -> www, all in zone: both CNAMEs plus the final A.
	p.add(c.zones[zi].origin, typeA, edns,
		expect{rcode: rcodeNoError, ancount: 3, cname: true, zone: uint32(zi)}, "alias")
}

// leaver is a query the server cannot answer from its wire fast paths: an
// ECS-bearing query (client-specific answer) or an ANY query.
func (p *packer) leaver(c *corpus, zi int) {
	z := &c.zones[zi]
	hi := p.rng.Intn(6) // A-only hosts: ANY returns exactly the one A
	h := z.hosts[hi]
	e := expect{rcode: rcodeNoError, ancount: 1, rdlen: 4, rdata: h.addr}
	if p.rng.Intn(2) == 0 {
		p.add(z.origin, typeA, ecsEDNS, e, hostLabels[hi])
	} else {
		p.add(z.origin, typeANY, noEDNS, e, hostLabels[hi])
	}
}

// workloadRNG derives an independent stream per (seed, stream name) so the
// order workloads are built in never changes their contents.
func workloadRNG(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// hotHitsQueries: 256 (name,type) pairs over the 32 hottest zones, half of
// the queries with EDNS - 512 cache keys, far inside the hot cache.
func hotHitsQueries(c *corpus, seed int64, n int) *querySet {
	p := newPacker(workloadRNG(seed, "hot_hits"), n, true)
	for i := 0; i < n; i++ {
		p.host(c, p.rng.Intn(32), p.rng.Intn(hostsPerZone), p.coinEDNS())
	}
	return p.qs
}

// missMixQueries spreads names uniformly over every zone: 45% random-label
// NXDOMAIN, 25% referral, 10% wildcard, 10% CNAME chain, 10% leavers.
func missMixQueries(c *corpus, seed int64, n int) *querySet {
	p := newPacker(workloadRNG(seed, "miss_mix"), n, true)
	for i := 0; i < n; i++ {
		zi := p.rng.Intn(len(c.zones))
		switch r := p.rng.Intn(100); {
		case r < 45:
			p.nxdomain(c, zi, 12, p.coinEDNS())
		case r < 70:
			p.referral(c, zi, p.coinEDNS())
		case r < 80:
			p.wildcard(c, zi, p.coinEDNS())
		case r < 90:
			p.cnameChain(c, zi, p.coinEDNS())
		default:
			p.leaver(c, zi)
		}
	}
	return p.qs
}

// legitQueries is the resolver-side mix of flood_mix and churn_serve:
// Zipf-popular zones, 92% host lookups (hot-cache hits for the popular
// names, view-path misses for the tail), 3% NXDOMAIN, 3% referral, 2% CNAME.
func legitQueries(c *corpus, seed int64, n int) *querySet {
	p := newPacker(workloadRNG(seed, "legit"), n, true)
	zipf := rand.NewZipf(p.rng, zipfS, 1, uint64(len(c.zones)-1))
	for i := 0; i < n; i++ {
		zi := int(zipf.Uint64())
		switch r := p.rng.Intn(100); {
		case r < 92:
			p.host(c, zi, p.rng.Intn(hostsPerZone), p.coinEDNS())
		case r < 95:
			p.nxdomain(c, zi, 12, p.coinEDNS())
		case r < 98:
			p.referral(c, zi, p.coinEDNS())
		default:
			p.cnameChain(c, zi, p.coinEDNS())
		}
	}
	return p.qs
}

// floodZones is how many of the hottest zones the attacker targets.
const floodZones = 8

// floodQueries is the attacker stream: random-subdomain queries into the
// hottest zones. Unchecked: flood replies are never operations.
func floodQueries(c *corpus, seed int64, n int) *querySet {
	p := newPacker(workloadRNG(seed, "flood"), n, false)
	for i := 0; i < n; i++ {
		p.nxdomain(c, p.rng.Intn(floodZones), 16, noEDNS)
	}
	return p.qs
}

// probeQuery packs the A query for probe.<origin> with the given ID.
func probeQuery(origin string, id uint16) []byte {
	p := newPacker(nil, 1, false)
	p.add(origin, typeA, noEDNS, expect{}, "probe")
	w := p.qs.arena
	w[0], w[1] = byte(id>>8), byte(id)
	return w
}

// sum hashes the zones plus the given query streams (wires and oracles, in
// order): identical seeds must give identical sums.
func (c *corpus) sum(streams ...*querySet) string {
	h := sha256.New()
	h.Write(c.zonesSum[:])
	for _, qs := range streams {
		hashQuerySet(h, qs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashQuerySet(h hash.Hash, qs *querySet) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(qs.len()))
	h.Write(n[:])
	h.Write(qs.arena)
	for _, o := range qs.off {
		binary.BigEndian.PutUint32(n[:4], o)
		h.Write(n[:4])
	}
	for _, e := range qs.exp {
		h.Write([]byte{e.rcode, e.ancount, e.rdlen, b2u(e.cname)})
		h.Write(e.rdata[:])
		binary.BigEndian.PutUint32(n[:4], e.zone)
		h.Write(n[:4])
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// checkResponse validates resp against the oracle e. It returns "" when the
// response is correct, otherwise a short reason. zones resolves CNAME
// expectations and may be nil when e has none.
func checkResponse(zones []zoneSpec, resp []byte, e *expect) string {
	if len(resp) < 12 {
		return "short response"
	}
	if resp[2]&0x80 == 0 {
		return "QR clear"
	}
	if rc := resp[3] & 0x0F; rc != e.rcode {
		return fmt.Sprintf("rcode %d want %d", rc, e.rcode)
	}
	an := int(resp[6])<<8 | int(resp[7])
	if an != int(e.ancount) {
		return fmt.Sprintf("ancount %d want %d", an, e.ancount)
	}
	if an == 0 {
		return ""
	}
	rtype, rd, rdlen, bad := firstAnswer(resp)
	if bad != "" {
		return bad
	}
	if e.cname {
		if rtype != typeCNAME {
			return fmt.Sprintf("first answer type %d want CNAME", rtype)
		}
		got, ok := readName(resp, rd)
		if want := "mid." + zones[e.zone].origin; !ok || got != want {
			return fmt.Sprintf("cname target %q want %q", got, want)
		}
		return ""
	}
	if rdlen != int(e.rdlen) || string(resp[rd:rd+rdlen]) != string(e.rdata[:e.rdlen]) {
		return fmt.Sprintf("rdata %x want %x", resp[rd:rd+rdlen], e.rdata[:e.rdlen])
	}
	return ""
}

// firstAnswer locates the first answer RR of a response with ancount > 0:
// its type and the offset and length of its rdata.
func firstAnswer(resp []byte) (rtype uint16, rd, rdlen int, bad string) {
	// Skip the echoed question, then the answer's owner.
	off, ok := skipName(resp, 12)
	if !ok || off+4 > len(resp) {
		return 0, 0, 0, "bad question"
	}
	off, ok = skipName(resp, off+4)
	if !ok || off+10 > len(resp) {
		return 0, 0, 0, "bad answer owner"
	}
	rtype = uint16(resp[off])<<8 | uint16(resp[off+1])
	rdlen = int(resp[off+8])<<8 | int(resp[off+9])
	rd = off + 10
	if rd+rdlen > len(resp) {
		return 0, 0, 0, "rdata overruns message"
	}
	return rtype, rd, rdlen, ""
}

// probeSerial decodes the serial out of a probe.<zone> answer (see
// probeAddr); ok is false for anything but a one-answer A response.
func probeSerial(resp []byte) (serial uint32, ok bool) {
	if len(resp) < 12 || resp[3]&0x0F != rcodeNoError || resp[6] != 0 || resp[7] != 1 {
		return 0, false
	}
	rtype, rd, rdlen, bad := firstAnswer(resp)
	if bad != "" || rtype != typeA || rdlen != 4 || resp[rd] != 10 {
		return 0, false
	}
	return uint32(resp[rd+1])<<16 | uint32(resp[rd+2])<<8 | uint32(resp[rd+3]), true
}

// skipName returns the offset just past the (possibly compressed) name at
// off.
func skipName(msg []byte, off int) (int, bool) {
	for off < len(msg) {
		l := int(msg[off])
		switch {
		case l == 0:
			return off + 1, true
		case l&0xC0 == 0xC0:
			return off + 2, off+2 <= len(msg)
		case l > 63:
			return 0, false
		}
		off += 1 + l
	}
	return 0, false
}

// readName decodes the name at off, following compression pointers, into
// canonical lower-case dotted text.
func readName(msg []byte, off int) (string, bool) {
	var sb strings.Builder
	for hops := 0; hops < 32; {
		if off >= len(msg) {
			return "", false
		}
		l := int(msg[off])
		switch {
		case l == 0:
			return sb.String(), true
		case l&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return "", false
			}
			off = (l&0x3F)<<8 | int(msg[off+1])
			hops++
			continue
		case l > 63 || off+1+l > len(msg):
			return "", false
		}
		sb.WriteString(strings.ToLower(string(msg[off+1 : off+1+l])))
		sb.WriteByte('.')
		off += 1 + l
	}
	return "", false
}
