package propagate

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"akamaidns/internal/backoff"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// benchZoneText is one zone of the benchmark's corpus shape (the zone
// package's bench zone 7): SOA, apex NS, a handful of hosts, a wildcard, a
// CNAME chain and a delegation with glue.
func benchZoneText(serial uint32) string {
	return fmt.Sprintf(`$TTL 300
@ IN SOA ns1 hostmaster ( %d 3600 600 604800 30 )
@ IN NS ns1
@ IN NS ns2
ns1 IN A 198.51.7.1
ns2 IN A 198.51.7.2
www IN A 203.0.7.1
api IN A 203.0.7.2
mail IN A 203.0.7.3
cdn IN A 203.0.7.4
img IN A 203.0.7.5
app IN A 203.0.7.6
static IN AAAA 2001:db8:7::7
m IN AAAA 2001:db8:7::8
*.wild IN A 192.0.2.8
alias IN CNAME mid
mid IN CNAME www
sub IN NS ns1.sub
sub IN NS ns2.sub
ns1.sub IN A 100.64.7.1
ns2.sub IN A 100.64.7.2
probe IN A 10.0.0.1
`, serial)
}

var benchOrigin = dnswire.MustName("z00007corp.org")

// BenchmarkZoneSum hashes the bench zone once per iteration.
func BenchmarkZoneSum(b *testing.B) {
	z := zone.MustParseMaster(benchZoneText(1), benchOrigin)
	b.ReportAllocs()
	for b.Loop() {
		ZoneSum(z)
	}
}

var fuzzOrigin = dnswire.MustName("fz.test")

// fuzzRecords decodes data into a record set under fz.test: its SOA, then
// one A, AAAA, TXT or MX record per four bytes, owned by the apex or one of
// seven names, with a TTL and RDATA drawn from the bytes.
func fuzzRecords(data []byte) (soa *dnswire.SOA, recs []dnswire.RR) {
	hdr := func(owner dnswire.Name, t dnswire.Type, ttl uint32) dnswire.RRHeader {
		return dnswire.RRHeader{Name: owner, Type: t, Class: dnswire.ClassINET, TTL: ttl}
	}
	soa = &dnswire.SOA{RRHeader: hdr(fuzzOrigin, dnswire.TypeSOA, 300),
		MName: fuzzOrigin, RName: fuzzOrigin, Serial: 1, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 30}
	for ; len(data) >= 4; data = data[4:] {
		owner := fuzzOrigin
		if n := data[0] & 7; n != 0 {
			owner = dnswire.MustName(fmt.Sprintf("n%d.fz.test", n))
		}
		ttl := 60 + uint32(data[0]>>6)
		switch data[1] & 3 {
		case 0:
			recs = append(recs, &dnswire.A{RRHeader: hdr(owner, dnswire.TypeA, ttl),
				Addr: netip.AddrFrom4([4]byte{192, 0, data[2], data[3]})})
		case 1:
			recs = append(recs, &dnswire.AAAA{RRHeader: hdr(owner, dnswire.TypeAAAA, ttl),
				Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: data[2], 15: data[3]})})
		case 2:
			recs = append(recs, &dnswire.TXT{RRHeader: hdr(owner, dnswire.TypeTXT, ttl),
				Texts: []string{fmt.Sprintf("t%d", int(data[2])<<8|int(data[3]))}})
		default:
			recs = append(recs, &dnswire.MX{RRHeader: hdr(owner, dnswire.TypeMX, ttl),
				Preference: uint16(data[2]), Exchange: dnswire.MustName(fmt.Sprintf("mx%d.fz.test", data[3]&7))})
		}
	}
	return soa, recs
}

// shuffled returns a copy of recs in an order drawn from seed.
func shuffled(recs []dnswire.RR, seed int64) []dnswire.RR {
	out := append([]dnswire.RR(nil), recs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// FuzzZoneSum holds ZoneSum to the record set a zone holds: Build,
// ParseMaster and FromTransfer, each fed the same arbitrary records in its
// own order, give one sum, and the set less any one record that the zone
// keeps gives another.
func FuzzZoneSum(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0, 0, 1, 1, 1, 0, 1, 1}, int64(1))
	f.Add([]byte{0, 0, 1, 1, 0, 0, 1, 1, 0x40, 0, 1, 1}, int64(2)) // a duplicate, and a TTL-only twin
	f.Add([]byte{3, 1, 9, 9, 3, 2, 9, 9, 3, 3, 9, 9, 0, 3, 0, 0}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		soa, recs := fuzzRecords(data)
		all := append([]dnswire.RR{soa}, recs...)
		built, err := zone.Build(fuzzOrigin, shuffled(all, seed))
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		for _, rr := range shuffled(all, seed+1) {
			text.WriteString(rr.String() + "\n")
		}
		parsed, err := zone.ParseMaster(strings.NewReader(text.String()), fuzzOrigin)
		if err != nil {
			t.Fatalf("ParseMaster: %v\n%s", err, text.String())
		}
		stream := append(append([]dnswire.RR{soa}, shuffled(recs, seed+2)...), soa)
		transferred, err := zone.FromTransfer(fuzzOrigin, stream)
		if err != nil {
			t.Fatal(err)
		}
		sum := ZoneSum(built)
		if ZoneSum(parsed) != sum || ZoneSum(transferred) != sum {
			t.Fatalf("sums differ: Build %x, ParseMaster %x, FromTransfer %x", sum, ZoneSum(parsed), ZoneSum(transferred))
		}
		for i := range recs {
			less := append(append([]dnswire.RR{soa}, recs[:i]...), recs[i+1:]...)
			z, err := zone.Build(fuzzOrigin, less)
			if err != nil {
				t.Fatal(err)
			}
			if z.NumRecords() != built.NumRecords() && ZoneSum(z) == sum {
				t.Fatalf("dropping %v leaves the sum %x", recs[i], sum)
			}
		}
	})
}

// tamperLink answers every request from the source and lets edit alter a
// transfer's records before re-sealing it, so the transit checksum passes
// and only the end-to-end content check stands between the edit and the
// edge store. Responses arrive one millisecond later.
type tamperLink struct {
	clock    SimClock
	src      *Source
	edit     func(*Response) bool
	tampered int
}

func (l *tamperLink) Send(req Request, deliver func(now simtime.Time, resp *Response)) {
	resp := l.src.Handle(req)
	if l.edit(resp) {
		resp.Seal()
		l.tampered++
	}
	l.clock.After(time.Millisecond, func(now simtime.Time) { deliver(now, resp) })
}

// alterRecord changes one record of recs in place, picked by pick: its TTL
// when flip is even, else its removal. It reports the altered slice.
func alterRecord(recs []dnswire.RR, pick uint16, flip uint8) []dnswire.RR {
	i := int(pick) % len(recs)
	if flip%2 == 1 {
		return append(recs[:i:i], recs[i+1:]...)
	}
	rr := recs[i].Copy()
	rr.Header().TTL ^= uint32(flip) | 1
	recs[i] = rr
	return recs
}

// FuzzVerifyBeforeInstall alters one record of every IXFR and AXFR
// response a puller receives, then re-seals it. Each altered transfer
// fails the ZoneSum check, so nothing is installed: the edge store's
// FindWire keeps answering from the version it held.
func FuzzVerifyBeforeInstall(f *testing.F) {
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(1), uint8(1))
	f.Add(uint16(7), uint8(2))
	f.Add(uint16(19), uint8(255))
	f.Fuzz(func(t *testing.T, pick uint16, flip uint8) {
		sched := simtime.NewScheduler()
		clock := SimClock{Sched: sched}
		ctl, hist, local := zone.NewStore(), zone.NewHistory(8), zone.NewStore()
		v1 := zone.MustParseMaster(benchZoneText(1), benchOrigin)
		hist.Record(v1)
		ctl.Put(v1)
		old := zone.MustParseMaster(benchZoneText(1), benchOrigin)
		local.Put(old)
		v2 := zone.MustParseMaster(benchZoneText(2)+"new IN A 192.0.2.77\n", benchOrigin)
		hist.Record(v2)
		ctl.Put(v2)

		link := &tamperLink{clock: clock, src: NewSource(ctl, hist), edit: func(r *Response) bool {
			switch {
			case r.Op == OpIXFR && len(r.Delta.Added) > 0:
				r.Delta.Added = alterRecord(r.Delta.Added, pick, flip)
				return true
			case r.Op == OpAXFR && len(r.Records) > 2:
				// The framing SOAs stay: the edit is to the zone's content.
				body := alterRecord(append([]dnswire.RR(nil), r.Records[1:len(r.Records)-1]...), pick, flip)
				r.Records = append(append([]dnswire.RR{r.Records[0]}, body...), r.Records[len(r.Records)-1])
				return true
			}
			return false
		}}
		p := NewTimed(Config{ID: "edge", Clock: clock, Transport: link, Store: local, Seed: 1},
			time.Second, 100*time.Millisecond, backoff.Default())
		p.Start()
		sched.RunFor(5 * time.Second)
		p.Stop()

		st := p.Status()
		if link.tampered == 0 || st.SumMismatches == 0 {
			t.Fatalf("tampered %d transfers, %d sum mismatches", link.tampered, st.SumMismatches)
		}
		if st.DeltaPulls != 0 || st.FullPulls != 0 {
			t.Fatalf("an altered transfer was installed: %+v", st)
		}
		var buf [256]byte
		z, _, ok := local.FindWire(dnswire.MustName("www.z00007corp.org").AppendWire(buf[:0]))
		if !ok || z != old {
			t.Fatalf("FindWire routes to %p (serial %d), want the old version %p", z, z.Serial(), old)
		}
	})
}
