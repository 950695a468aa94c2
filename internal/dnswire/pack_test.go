package dnswire

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
)

// manyNamesMessage names more suffixes than the compressor keeps inline, so
// its spill table is exercised too.
func manyNamesMessage() *Message {
	m := NewResponse(NewQuery(3, MustName("example.com"), TypeAXFR))
	for i := 0; i < 48; i++ {
		owner := MustName(fmt.Sprintf("h%d.zone%d.example.com", i, i%5))
		m.Answers = append(m.Answers,
			&A{RRHeader{owner, TypeA, ClassINET, 60}, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
			&MX{RRHeader{owner, TypeMX, ClassINET, 60}, 10, MustName(fmt.Sprintf("mx%d.zone%d.example.com", i%7, i%5))})
	}
	return m
}

// ecsResponse is the decode path's typical reply: an answer set, an
// authority set and the EDNS echo carrying the client subnet.
func ecsResponse() *Message {
	m := sampleMessage()
	opt := NewOPT(1232)
	if err := opt.SetClientSubnet(ECS{Family: 1, SourcePrefix: 24, ScopePrefix: 24, Addr: netip.MustParseAddr("203.0.113.0")}); err != nil {
		panic(err)
	}
	m.Additional = append(m.Additional, opt)
	return m
}

// FuzzPackParity holds the packer to the map-based reference
// (pack_oracle_test.go): any message that unpacks packs to the same bytes
// through AppendPack, with and without a prefix in the buffer, and
// AppendTruncateTo at any limit agrees on the wire, the TC bit and the
// section counts.
func FuzzPackParity(f *testing.F) {
	for _, m := range []*Message{sampleMessage(), manyNamesMessage(), ecsResponse()} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, []byte("prefix"), uint16(512))
		f.Add(wire, []byte{}, uint16(len(wire)/2))
	}
	chain := NewResponse(NewQuery(7, MustName("a.b.c.d.example.com"), TypeTXT))
	for _, n := range []string{"b.c.d.example.com", "c.d.example.com", "d.example.com", "example.com", "com"} {
		chain.Answers = append(chain.Answers, &CNAME{RRHeader{MustName(n), TypeCNAME, ClassINET, 60}, MustName("x." + n)})
	}
	wire, _ := chain.Pack()
	f.Add(wire, []byte{0xFF}, uint16(64))
	f.Fuzz(func(t *testing.T, data, prefix []byte, limit uint16) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		for _, pre := range [][]byte{nil, prefix} {
			got, errGot := m.AppendPack(append([]byte(nil), pre...))
			want, errWant := oracleAppendPack(m, append([]byte(nil), pre...))
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("AppendPack err=%v, reference err=%v", errGot, errWant)
			}
			if errGot == nil && !bytes.Equal(got, want) {
				t.Fatalf("AppendPack after %d-byte prefix differs from the reference:\n%x\n%x", len(pre), got, want)
			}
		}
		fg, got, errGot := m.AppendTruncateTo(int(limit), append([]byte(nil), prefix...))
		fw, want, errWant := oracleAppendTruncateTo(m, int(limit), append([]byte(nil), prefix...))
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("AppendTruncateTo(%d) err=%v, reference err=%v", limit, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendTruncateTo(%d) differs from the reference:\n%x\n%x", limit, got, want)
		}
		if fg.Truncated != fw.Truncated || len(fg.Answers) != len(fw.Answers) ||
			len(fg.Authority) != len(fw.Authority) || len(fg.Additional) != len(fw.Additional) {
			t.Fatalf("AppendTruncateTo(%d): TC %v %d/%d/%d, reference TC %v %d/%d/%d", limit,
				fg.Truncated, len(fg.Answers), len(fg.Authority), len(fg.Additional),
				fw.Truncated, len(fw.Answers), len(fw.Authority), len(fw.Additional))
		}
	})
}

// ixfrDelta is an IXFR-sized reply: the whole delta of a busy zone in one
// message, 2000 address records under distinct owners, close to the 64 KiB
// a TCP message may carry. Every owner adds a suffix the compressor must
// remember, so the table is far past its inline part.
func ixfrDelta() *Message {
	m := NewResponse(NewQuery(5, MustName("example.com"), TypeIXFR))
	for i := 0; i < 2000; i++ {
		owner := MustName(fmt.Sprintf("host%d.example.com", i))
		m.Answers = append(m.Answers,
			&A{RRHeader{owner, TypeA, ClassINET, 60}, netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)})})
	}
	return m
}

// BenchmarkPackIXFRDelta packs an IXFR-sized delta through AppendPack and
// through the map-based reference, so a packer whose name lookup grows with
// the message shows against one whose lookup does not.
func BenchmarkPackIXFRDelta(b *testing.B) {
	m := ixfrDelta()
	for _, c := range []struct {
		name string
		pack func([]byte) ([]byte, error)
	}{
		{"packer", m.AppendPack},
		{"reference", func(buf []byte) ([]byte, error) { return oracleAppendPack(m, buf) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 64<<10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := c.pack(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
		})
	}
}

// BenchmarkAppendTruncateTo packs the decode path's typical reply into a
// reused buffer: the reply fits, so nothing is copied, and the compressor
// lives on the stack. Guarded at 0 allocs/op.
func BenchmarkAppendTruncateTo(b *testing.B) {
	m := ecsResponse()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitted, out, err := m.AppendTruncateTo(1232, buf[:0])
		if err != nil || fitted.Truncated {
			b.Fatal(err)
		}
		buf = out
	}
}
