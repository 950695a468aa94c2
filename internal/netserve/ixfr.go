package netserve

import (
	"errors"
	"fmt"
	"io"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// Zone transfers over TCP. AXFR (RFC 5936) sends the whole zone, SOA first
// and last. IXFR (RFC 1995) sends a secondary presenting its SOA serial only
// the delta from a bounded zone.History of recent versions, or the whole
// zone when that serial is no longer retained, as the RFC prescribes. The
// query arrives through handlePacket like any other; both kinds of answer
// leave through one stream writer, writeStream, and come back through one
// client loop, readTransfer.

// transferBatch is how many records each transfer message carries.
const transferBatch = 64

// transfer answers an AXFR or IXFR on the connection w and reports the
// rcode it answered with: REFUSED when transfers are off or the zone is not
// served here, otherwise NOERROR and the zone's stream — for an IXFR, what
// incremental narrows it to. A pack or write failure counts in WriteErrors.
func (s *Server) transfer(q *dnswire.Message, w io.Writer) dnswire.RCode {
	var stream []dnswire.RR
	if s.Cfg.AllowTransfer {
		stream = s.Engine.Store.Transfer(q.Questions[0].Name)
	}
	rcode := dnswire.RCodeRefused
	if stream != nil {
		rcode = dnswire.RCodeNoError
		s.Metrics.Transfers.Add(1)
		if q.Questions[0].Type == dnswire.TypeIXFR {
			stream = s.incremental(q, stream)
		}
	}
	if err := writeStream(w, q, rcode, stream); err != nil {
		s.Metrics.WriteErrors.Add(1)
	}
	return rcode
}

// incremental narrows the full stream an IXFR would get (Store.Transfer's,
// closed by the zone's SOA) to what the client's serial, carried in the
// query's authority section, needs: the SOA alone when the client is up to
// date, the bracket new, old, deletions…, new, additions…, new when history
// holds the delta from its serial, and the full stream otherwise.
func (s *Server) incremental(q *dnswire.Message, full []dnswire.RR) []dnswire.RR {
	cur := full[len(full)-1].(*dnswire.SOA)
	var from *dnswire.SOA
	for _, rr := range q.Authority {
		if soa, ok := rr.(*dnswire.SOA); ok {
			from = soa
		}
	}
	switch {
	case from == nil:
		return full
	case from.Serial == cur.Serial:
		return []dnswire.RR{cur}
	case s.History == nil:
		return full
	}
	d, st := s.History.DeltaFrom(q.Questions[0].Name, from.Serial)
	if st != zone.DeltaOK || d.ToSerial != cur.Serial {
		return full
	}
	old := cur.Copy().(*dnswire.SOA)
	old.Serial = from.Serial
	out := append([]dnswire.RR{cur, old}, d.Deleted...)
	out = append(out, cur)
	out = append(out, d.Added...)
	return append(out, cur)
}

// writeStream is the one writer of transfer frames: it sends stream to w as
// replies to q of transferBatch records each, or — for a refusal, which has
// no records — one bare reply carrying rcode.
func writeStream(w io.Writer, q *dnswire.Message, rcode dnswire.RCode, stream []dnswire.RR) error {
	r := dnswire.NewResponse(q)
	r.RCode, r.Authoritative = rcode, rcode == dnswire.RCodeNoError
	for i := 0; i == 0 || i < len(stream); i += transferBatch {
		r.Answers = stream[i:min(i+transferBatch, len(stream))]
		wire, err := r.Pack()
		if err == nil {
			err = writeFrame(w, wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// IncrementalResult is the outcome of an IXFR: exactly one of UpToDate (no
// records), Delta (an incremental answer) or Full (the complete zone,
// AXFR-style).
type IncrementalResult struct {
	UpToDate bool
	// Delta is set for an incremental response.
	Delta *zone.Delta
	// Full is set for an AXFR-style response.
	Full []dnswire.RR
}

// Transfer performs an AXFR over TCP, returning all records.
func Transfer(addr string, origin dnswire.Name, timeout time.Duration) ([]dnswire.RR, error) {
	res, err := transferFrom(addr, dnswire.NewQuery(1, origin, dnswire.TypeAXFR), timeout)
	if err != nil {
		return nil, err
	}
	return res.Full, nil
}

// TransferIncremental performs an IXFR from addr for origin, given the
// serial the caller holds, and classifies the response.
func TransferIncremental(addr string, origin dnswire.Name, haveSerial uint32, timeout time.Duration) (*IncrementalResult, error) {
	q := dnswire.NewQuery(uint16(time.Now().UnixNano()), origin, dnswire.TypeIXFR)
	q.Authority = append(q.Authority, &dnswire.SOA{
		RRHeader: dnswire.RRHeader{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET},
		MName:    origin, RName: origin, Serial: haveSerial,
	})
	return transferFrom(addr, q, timeout)
}

// transferFrom sends a transfer query over a fresh TCP connection and reads
// the answer stream.
func transferFrom(addr string, q *dnswire.Message, timeout time.Duration) (*IncrementalResult, error) {
	conn, err := sendTCP(addr, q, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return readTransfer(conn, q.Questions[0].Type == dnswire.TypeIXFR)
}

// readTransfer is the one client loop over transfer frames: it reads r until
// the answer is complete, classifying the stream once per frame. The stream
// opens with the zone's SOA. At the end of a frame it is complete when it is
// that SOA alone (an IXFR answer only: up to date) or when the frame ends
// with the stream's last closing SOA — a SOA carrying the opening serial. A
// full zone has one closing SOA; an incremental stream, an IXFR answer whose
// second record is an older SOA, has two: one between its deletions and
// additions and one at the end. An error rcode, an empty message and
// records after the last closing SOA are errors.
func readTransfer(r io.Reader, ixfr bool) (*IncrementalResult, error) {
	var recs []dnswire.RR
	var first *dnswire.SOA
	incremental, closes := false, 0
	for {
		frame, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		m, err := dnswire.Unpack(frame)
		if err != nil {
			return nil, err
		}
		if m.RCode != dnswire.RCodeNoError {
			return nil, fmt.Errorf("netserve: transfer refused: %s", m.RCode)
		}
		if len(m.Answers) == 0 {
			return nil, errors.New("netserve: empty transfer message")
		}
		for _, rr := range m.Answers {
			soa, isSOA := rr.(*dnswire.SOA)
			switch {
			case first == nil && !isSOA:
				return nil, errors.New("netserve: transfer did not start with SOA")
			case first == nil:
				first = soa
			case isSOA && soa.Serial == first.Serial:
				closes++
			case isSOA && len(recs) == 1:
				incremental = ixfr
			}
			recs = append(recs, rr)
		}
		want := 1
		if incremental {
			want = 2
		}
		last, _ := recs[len(recs)-1].(*dnswire.SOA)
		switch {
		case ixfr && len(recs) == 1:
			return &IncrementalResult{UpToDate: true}, nil
		case closes < want:
			continue
		case closes > want || last == nil || last.Serial != first.Serial:
			return nil, errors.New("netserve: records after the transfer's closing SOA")
		case incremental:
			return &IncrementalResult{Delta: splitIncremental(recs)}, nil
		}
		return &IncrementalResult{Full: recs}, nil
	}
}

// splitIncremental cuts a complete incremental stream — new SOA, old SOA,
// deletions…, new SOA, additions…, new SOA — into its delta.
func splitIncremental(recs []dnswire.RR) *zone.Delta {
	to := recs[0].(*dnswire.SOA).Serial
	d := &zone.Delta{FromSerial: recs[1].(*dnswire.SOA).Serial, ToSerial: to}
	body := recs[2 : len(recs)-1]
	for i, rr := range body {
		if soa, ok := rr.(*dnswire.SOA); ok && soa.Serial == to {
			d.Deleted, d.Added = body[:i:i], body[i+1:]
			break
		}
	}
	return d
}
