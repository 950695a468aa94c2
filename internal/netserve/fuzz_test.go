package netserve

import (
	"bytes"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// FuzzTCPFrameReader feeds arbitrary byte streams through the TCP frame
// reader: every frame it yields must be well-formed (1..65535 bytes) and
// survive a write/read round trip, and the reader must terminate — no
// panic, no infinite loop — on any input prefix.
func FuzzTCPFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00})            // zero-length frame
	f.Add([]byte{0x00, 0x05, 'h', 'i'})  // truncated payload
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3})   // oversized declared length
	f.Add([]byte{0x00, 0x01, 'x', 0x00}) // valid frame then a truncated prefix
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if wire, err := q.Pack(); err == nil {
		var framed bytes.Buffer
		if writeFrame(&framed, wire) == nil {
			seed := framed.Bytes()
			f.Add(seed)
			f.Add(append(append([]byte(nil), seed...), seed...)) // two frames back to back
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i <= len(data); i++ {
			frame, err := readFrame(r)
			if err != nil {
				return
			}
			if len(frame) == 0 || len(frame) > 65535 {
				t.Fatalf("frame length %d out of range", len(frame))
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, frame); err != nil {
				t.Fatalf("round-trip write failed: %v", err)
			}
			back, err := readFrame(&buf)
			if err != nil || !bytes.Equal(back, frame) {
				t.Fatalf("round trip mismatch: err=%v", err)
			}
		}
		t.Fatal("reader yielded more frames than input bytes")
	})
}

// FuzzTransferStream feeds arbitrary frame sequences to the one client
// transfer reader as the answer to an AXFR or an IXFR. It must never panic,
// must stop once its input runs out, and must return exactly one of up to
// date, a delta or a full stream — or an error. A delta's serials are those
// of the SOA bracket its stream opens with, and a full stream opens and
// closes with the same SOA serial.
func FuzzTransferStream(f *testing.F) {
	origin := dnswire.MustName("ex.test")
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, origin))
	full := store.Transfer(origin)
	soa := full[0].(*dnswire.SOA)
	old := soa.Copy().(*dnswire.SOA)
	old.Serial--
	inc := []dnswire.RR{soa, old, full[2], soa}
	for i := 0; i < 2*transferBatch; i++ {
		inc = append(inc, hostA("h"+itoaTest(i)+".ex.test"))
	}
	inc = append(inc, soa)
	stream := func(recs []dnswire.RR) []byte {
		var b bytes.Buffer
		if err := writeStream(&b, dnswire.NewQuery(1, origin, dnswire.TypeIXFR), dnswire.RCodeNoError, recs); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	incWire := stream(inc) // three frames
	f.Add(stream([]dnswire.RR{soa}), true)
	f.Add(incWire, true)
	f.Add(stream(full), false)
	f.Add(stream(full), true)
	f.Add(incWire[:len(incWire)-9], true) // cut short inside its last frame
	f.Fuzz(func(t *testing.T, data []byte, ixfr bool) {
		res, err := readTransfer(bytes.NewReader(data), ixfr)
		if err != nil {
			if res != nil {
				t.Fatalf("result %+v beside error %v", res, err)
			}
			return
		}
		n := 0
		for _, set := range []bool{res.UpToDate, res.Delta != nil, res.Full != nil} {
			if set {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%d outcomes in %+v", n, res)
		}
		if !ixfr && res.Full == nil {
			t.Fatalf("an AXFR answer read as %+v", res)
		}
		// A stream's opening records are in its first frame: a first frame
		// holding the lone SOA is already an answer.
		frame, _ := readFrame(bytes.NewReader(data))
		m, err := dnswire.Unpack(frame)
		if err != nil {
			t.Fatalf("accepted a stream whose first frame does not decode: %v", err)
		}
		open := m.Answers[0].(*dnswire.SOA)
		switch {
		case res.Delta != nil:
			from, ok := m.Answers[1].(*dnswire.SOA)
			if !ok || res.Delta.ToSerial != open.Serial || res.Delta.FromSerial != from.Serial || from.Serial == open.Serial {
				t.Fatalf("delta %d→%d from a stream opening %v, %v", res.Delta.FromSerial, res.Delta.ToSerial, open, m.Answers[1])
			}
		case res.Full != nil:
			last, ok := res.Full[len(res.Full)-1].(*dnswire.SOA)
			if len(res.Full) < 2 || !ok || last.Serial != open.Serial {
				t.Fatalf("full stream of %d records does not open and close with serial %d", len(res.Full), open.Serial)
			}
		}
	})
}
