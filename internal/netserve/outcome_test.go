package netserve

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/queue"
	"akamaidns/internal/zone"
)

// probeFilter scores every query at penalty and counts what the pipeline is
// told about answers; last is the folded wire name of the latest.
type probeFilter struct {
	penalty float64
	told    int
	last    string
}

func (*probeFilter) Name() string                   { return "probe" }
func (p *probeFilter) Score(*filters.Query) float64 { return p.penalty }
func (p *probeFilter) ObserveAnswer(q *filters.Query, _ bool) {
	p.told++
	p.last = string(q.Qname)
}

// outcomeServer is a socketless server over ex.test sampling
// 1-in-every queries (1 records every query and stamps its every stage), an
// overload ladder to push, and whatever filters the test scores with.
func outcomeServer(t *testing.T, every int, fs ...filters.Filter) *Server {
	t.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.Flight = &flight.Config{SampleEvery: every}
	cfg.MaxInflight = 100
	return New(cfg, nameserver.NewEngine(store), filters.NewPipeline(fs...))
}

func packQuery(t *testing.T, name string, typ dnswire.Type, edit func(*dnswire.Message)) []byte {
	t.Helper()
	q := dnswire.NewQuery(0x1d1d, dnswire.MustName(name), typ)
	if edit != nil {
		edit(q)
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// withSerial makes q an IXFR that presents serial 7, ex.test's current one.
func withSerial(q *dnswire.Message) {
	origin := q.Questions[0].Name
	q.Authority = append(q.Authority, &dnswire.SOA{
		RRHeader: dnswire.RRHeader{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET},
		MName:    origin, RName: origin, Serial: 7,
	})
}

func withECS(q *dnswire.Message) {
	opt := dnswire.NewOPT(1232)
	opt.SetClientSubnet(dnswire.ECS{Family: 1, SourcePrefix: 24, Addr: netip.MustParseAddr("203.0.113.0")})
	q.Additional = append(q.Additional, opt)
}

func histCount(srv *Server, name string, labels ...string) uint64 {
	want := ""
	if len(labels) == 2 {
		want = `{` + labels[0] + `="` + labels[1] + `"}`
	}
	for _, p := range srv.Reg.Snapshot() {
		if p.Name == name && p.Labels == want {
			return p.Count
		}
	}
	return 0
}

func enqueued(srv *Server) float64 {
	v, _ := srv.Reg.Snapshot().Value(obs.MetricQueueEnqueuedTotal)
	return v
}

// TestAdmittedOnce: a query that the view tier admits and then cannot answer
// — the reply would not fit — is not admitted again by the decode path: one enqueue, one token from its
// resolver's bucket.
func TestAdmittedOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		qnames    [3]string // distinct where an answer would graduate to the hot cache
		qtype     dnswire.Type
		truncated bool
	}{
		{"oversize TXT without EDNS", [3]string{"big.ex.test", "big.ex.test", "big.ex.test"}, dnswire.TypeTXT, true},
	} {
		rl := filters.NewRateLimit()
		rl.DefaultQPS, rl.BurstSeconds = 0.001, 2500 // a bucket of 2.5 tokens that does not drain
		srv := outcomeServer(t, 1, rl)
		sc := scratchPool.Get().(*scratch)
		for i, qname := range tc.qnames {
			m, err := dnswire.Unpack(srv.handlePacket(packQuery(t, qname, tc.qtype, nil), benchSrc, false, sc))
			if err != nil || m.RCode != dnswire.RCodeNoError || m.Truncated != tc.truncated {
				t.Fatalf("%s: reply %v %v", tc.name, m, err)
			}
			if got := enqueued(srv); got != float64(i+1) {
				t.Errorf("%s: %v enqueues after %d queries", tc.name, got, i+1)
			}
			// The bucket overflows on the third token, not before.
			if want := uint64(i / 2); rl.Over != want {
				t.Errorf("%s: %d queries overflowed the 2.5-token bucket %d times, want %d", tc.name, i+1, rl.Over, want)
			}
		}
		if srv.Metrics.ViewServed.Load() != 0 || histCount(srv, obs.MetricStageDuration, "stage", "receive") != 3 {
			t.Errorf("%s: the queries did not fall through the view tier to the decode path", tc.name)
		}
		scratchPool.Put(sc)
	}
}

// TestOneSpanPerQuery: a query opens one span whichever tiers it crosses, so
// no stage is stamped more often than queries arrived, and the end-to-end
// series counts exactly the answers sent.
func TestOneSpanPerQuery(t *testing.T) {
	srv := outcomeServer(t, 1, filters.NewRateLimit())
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	stages := []string{"receive", "cookie", "score", "queue", "lookup", "write"}
	sent, answers := uint64(0), uint64(0)
	check := func(when string) {
		t.Helper()
		for _, st := range stages {
			if got := histCount(srv, obs.MetricStageDuration, "stage", st); got > sent {
				t.Errorf("%s: stage %s stamped %d times for %d queries", when, st, got, sent)
			}
		}
		if got := histCount(srv, obs.MetricQueryDuration); got != answers {
			t.Errorf("%s: %d end-to-end observations for %d answers", when, got, answers)
		}
	}
	ask := func(wire []byte, tcp bool) {
		sent++
		if srv.handlePacket(wire, benchSrc, tcp, sc) != nil {
			answers++
		}
	}
	www := packQuery(t, "www.ex.test", dnswire.TypeA, nil)
	ask(www, false) // cold: hot miss, view answer
	check("one cold query")
	if got := histCount(srv, obs.MetricStageDuration, "stage", "receive"); got != 0 {
		t.Errorf("a wire tier stamped the decode stage %d times", got)
	}
	for _, tc := range []struct {
		wire []byte
		tcp  bool
	}{
		{www, false}, // warm: hot hit
		{packQuery(t, "nope.ex.test", dnswire.TypeA, nil), false},    // view NXDOMAIN
		{packQuery(t, "www.other.test", dnswire.TypeA, nil), false},  // view REFUSED
		{packQuery(t, "big.ex.test", dnswire.TypeTXT, nil), false},   // view → decode, TC
		{packQuery(t, "www.ex.test", dnswire.TypeA, withECS), false}, // decode
		{packQuery(t, "www.ex.test", dnswire.TypeA, nil), true},      // decode over TCP
		{append([]byte(nil), www[:len(www)-3]...), false},            // undecodable: FORMERR
		{append([]byte{0, 1, 0x80}, www[3:]...), false},              // QR set: dropped
	} {
		for i := 0; i < 3; i++ { // cold, then whatever it graduated to
			ask(tc.wire, tc.tcp)
		}
	}
	check("every tier, cold then warm")
	if sent-answers != 3 {
		t.Errorf("%d of %d queries unanswered, want only the 3 with QR set", sent-answers, sent)
	}
}

// TestOneSamplingDecision: dispatch draws one sampling decision per query and
// both instruments follow it. Each stage histogram counts only the sampled
// queries that reached the stage, the end-to-end series counts every answer,
// and the flight recorder head-samples exactly the sampled normal-verdict
// queries while capturing every anomaly.
func TestOneSamplingDecision(t *testing.T) {
	const every, rounds = 4, 8
	probe := &probeFilter{}
	srv := outcomeServer(t, every, probe)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	www := packQuery(t, "www.ex.test", dnswire.TypeA, nil)
	poison := packQuery(t, dnswire.QoDMarkerLabel+".ex.test", dnswire.TypeA, nil)
	srv.handlePacket(www, benchSrc, false, sc)    // fills the hot cache
	srv.handlePacket(poison, benchSrc, false, sc) // quarantines its signature
	unique := func(i int) []byte { return packQuery(t, fmt.Sprintf("r%d.ex.test", i), dnswire.TypeA, nil) }

	all := []string{"receive", "cookie", "score", "queue", "lookup", "write"}
	// Five dispatched kinds against a period of 4: over the rounds each kind
	// takes its turn at being the sampled one.
	kinds := []struct {
		name      string
		wire      func(i int) []byte
		penalty   float64
		stages    []string // what a sampled query of the kind stamps
		refused   bool     // turned away before dispatch: draws no decision
		answered  bool
		anomalous bool
	}{
		{name: "hot", wire: func(int) []byte { return www }, stages: []string{"score", "queue", "lookup", "write"}, answered: true},
		{name: "view NXDOMAIN", wire: unique, stages: []string{"score", "queue", "lookup"}, answered: true},
		{name: "decode", wire: func(int) []byte { return packQuery(t, "www.ex.test", dnswire.TypeA, withECS) },
			stages: all, answered: true},
		{name: "FORMERR", wire: func(int) []byte { return www[:len(www)-3] }, stages: []string{"receive"},
			answered: true, anomalous: true},
		{name: "shed", wire: unique, penalty: queue.DefaultConfig().Smax, stages: []string{"score"}, anomalous: true},
		{name: "quarantine", wire: func(int) []byte { return poison }, refused: true, anomalous: true},
	}

	stage0 := map[string]uint64{}
	for _, st := range all {
		stage0[st] = histCount(srv, obs.MetricStageDuration, "stage", st)
	}
	e2e0, rec0 := histCount(srv, obs.MetricQueryDuration), srv.flight.Recorded()
	flightRecords := func(reason string) uint64 {
		v, _ := srv.Reg.Snapshot().Value(obs.MetricFlightRecordsTotal, "reason", reason)
		return uint64(v)
	}
	sampled0, anomalous0 := flightRecords("sampled"), flightRecords("anomalous")

	sc.tick = 0
	want := map[string]uint64{}
	var dispatched, answers, headSampled, anomalies uint64
	for i := 0; i < rounds; i++ {
		for _, k := range kinds {
			sampled := false
			if !k.refused {
				dispatched++
				sampled = dispatched%every == 0
			}
			probe.penalty = k.penalty
			resp := srv.handlePacket(k.wire(i), benchSrc, false, sc)
			probe.penalty = 0
			srv.admission.Drain()
			if (resp != nil) != (k.answered || k.refused) {
				t.Fatalf("%s: reply %x", k.name, resp)
			}
			if sampled {
				for _, st := range k.stages {
					want[st]++
				}
			}
			switch {
			case k.anomalous:
				anomalies++
			case sampled:
				headSampled++
			}
			if k.answered {
				answers++
			}
		}
	}
	if headSampled == 0 || want["receive"] == 0 || want["write"] == 0 {
		t.Fatalf("the run sampled too little to test: %d head samples, stages %v", headSampled, want)
	}
	for _, st := range all {
		if got := histCount(srv, obs.MetricStageDuration, "stage", st) - stage0[st]; got != want[st] {
			t.Errorf("stage %s stamped %d times, want the %d sampled queries that reached it", st, got, want[st])
		}
	}
	if got := histCount(srv, obs.MetricQueryDuration) - e2e0; got != answers {
		t.Errorf("%d end-to-end observations for %d answers", got, answers)
	}
	// A normal query held past the recorder's latency outlier bound (a
	// stalled machine) is captured as an anomaly instead: allow for it.
	late := uint64(0)
	for _, r := range srv.flight.Snapshot(int(srv.flight.Recorded() - rec0)) {
		if r.Anomalous() && !r.Verdict.Anomalous() {
			late++
		}
	}
	gotSampled, gotAnomalous := flightRecords("sampled")-sampled0, flightRecords("anomalous")-anomalous0
	if gotSampled > headSampled || gotSampled+late < headSampled {
		t.Errorf("%d head-sampled flight records, want the %d sampled normal queries", gotSampled, headSampled)
	}
	if gotAnomalous != anomalies+late {
		t.Errorf("%d anomalous flight records, want all %d anomalies", gotAnomalous, anomalies)
	}
}

// TestOneOutcomePerQuery runs one query down every way out of the read path
// and holds each to the same accounting: one flight sample carrying the
// disposal, the pipeline told of the answer at most once and only if one
// was decided, at most one hot-cache insert and only of this packet's own
// reply, one end-to-end observation iff it was answered. A zone transfer
// writes its own frames instead of a reply; only transfers write frames.
func TestOneOutcomePerQuery(t *testing.T) {
	const ceiling = 100 // outcomeServer's MaxInflight
	refused, formErr, nx := dnswire.RCodeRefused, dnswire.RCodeFormErr, dnswire.RCodeNXDomain
	www := func(t *testing.T) []byte { return packQuery(t, "www.ex.test", dnswire.TypeA, nil) }
	poison := func(t *testing.T) []byte {
		return packQuery(t, dnswire.QoDMarkerLabel+".ex.test", dnswire.TypeA, nil)
	}
	axfr := func(t *testing.T) []byte { return packQuery(t, "ex.test", dnswire.TypeAXFR, nil) }
	once := func(wire func(*testing.T) []byte) func(*testing.T, *Server, *scratch) {
		return func(t *testing.T, srv *Server, sc *scratch) { srv.handlePacket(wire(t), benchSrc, false, sc) }
	}
	for _, tc := range []struct {
		name      string
		wire      func(t *testing.T) []byte
		tcp       bool
		prep      func(t *testing.T, srv *Server, sc *scratch) // state before the packet
		penalty   float64                                      // what the pipeline scores it
		known     bool                                         // the resolver is allowlisted
		inflight  int                                          // ladder occupancy before the packet
		fullQueue bool

		verdict  flight.Verdict
		rcode    dnswire.RCode
		qname    string       // "" when the packet gave none
		qtype    dnswire.Type // checked when set
		reply    bool
		frames   int  // transfer frames written, each carrying rcode
		observed bool // the pipeline is told of an answer
		inserted bool // the reply enters the hot cache
	}{
		{name: "hot hit", wire: www, prep: once(www),
			verdict: flight.VerdictCached, qname: "www.ex.test.", reply: true, observed: true},
		{name: "view answer", wire: www,
			verdict: flight.VerdictView, qname: "www.ex.test.", reply: true, observed: true, inserted: true},
		{name: "view NXDOMAIN", wire: func(t *testing.T) []byte { return packQuery(t, "nope.ex.test", dnswire.TypeA, nil) },
			verdict: flight.VerdictView, rcode: nx, qname: "nope.ex.test.", reply: true, observed: true},
		{name: "view REFUSED", wire: func(t *testing.T) []byte { return packQuery(t, "www.other.test", dnswire.TypeA, nil) },
			verdict: flight.VerdictView, rcode: refused, qname: "www.other.test.", reply: true, observed: true},
		{name: "view to decode, oversize", wire: func(t *testing.T) []byte { return packQuery(t, "big.ex.test", dnswire.TypeTXT, nil) },
			verdict: flight.VerdictServed, qname: "big.ex.test.", reply: true, observed: true},
		{name: "decode, ECS", wire: func(t *testing.T) []byte { return packQuery(t, "www.ex.test", dnswire.TypeA, withECS) },
			verdict: flight.VerdictServed, qname: "www.ex.test.", reply: true, observed: true},
		{name: "decode, ANY", wire: func(t *testing.T) []byte { return packQuery(t, "www.ex.test", dnswire.TypeANY, nil) },
			verdict: flight.VerdictServed, qname: "www.ex.test.", reply: true, observed: true},
		{name: "decode, TCP", wire: www, tcp: true,
			verdict: flight.VerdictServed, qname: "www.ex.test.", reply: true, observed: true},
		{name: "decode, NOTIFY", wire: func(t *testing.T) []byte {
			return packQuery(t, "ex.test", dnswire.TypeSOA, func(q *dnswire.Message) { q.OpCode = dnswire.OpNotify })
		}, verdict: flight.VerdictServed, qname: "ex.test.", reply: true},
		{name: "decode, FORMERR", wire: func(t *testing.T) []byte { w := www(t); return w[:len(w)-3] },
			verdict: flight.VerdictError, rcode: formErr, reply: true},
		{name: "discard", wire: www, penalty: queue.DefaultConfig().Smax,
			verdict: flight.VerdictShed, qname: "www.ex.test."},
		{name: "tail drop", wire: www, fullQueue: true,
			verdict: flight.VerdictShed, qname: "www.ex.test."},
		{name: "clean-only REFUSED", wire: www, penalty: queue.DefaultConfig().Smax / 2, known: true, inflight: ceiling * 85 / 100,
			verdict: flight.VerdictShed, rcode: refused, qname: "www.ex.test.", reply: true},
		{name: "degraded REFUSED", wire: www, inflight: ceiling / 2,
			verdict: flight.VerdictShed, rcode: refused, qname: "www.ex.test.", reply: true},
		{name: "saturated drop", wire: www, inflight: ceiling,
			verdict: flight.VerdictShed},
		{name: "quarantined", wire: poison, prep: once(poison),
			verdict: flight.VerdictQuarantined, rcode: refused, qname: dnswire.QoDMarkerLabel + ".ex.test.", reply: true},
		{name: "contained panic", wire: poison,
			verdict: flight.VerdictCrashed, qname: dnswire.QoDMarkerLabel + ".ex.test."},
		{name: "AXFR", wire: axfr, tcp: true,
			verdict: flight.VerdictServed, qname: "ex.test.", qtype: dnswire.TypeAXFR, frames: 1},
		{name: "IXFR, up to date", wire: func(t *testing.T) []byte { return packQuery(t, "ex.test", dnswire.TypeIXFR, withSerial) }, tcp: true,
			verdict: flight.VerdictServed, qname: "ex.test.", qtype: dnswire.TypeIXFR, frames: 1},
		{name: "AXFR refused", wire: axfr, tcp: true, prep: func(_ *testing.T, srv *Server, _ *scratch) { srv.Cfg.AllowTransfer = false },
			verdict: flight.VerdictServed, rcode: refused, qname: "ex.test.", qtype: dnswire.TypeAXFR, frames: 1},
		{name: "AXFR, degraded REFUSED", wire: axfr, tcp: true, inflight: ceiling / 2,
			verdict: flight.VerdictShed, rcode: refused, qname: "ex.test.", qtype: dnswire.TypeAXFR, reply: true},
		{name: "AXFR with QR set", wire: func(t *testing.T) []byte {
			return packQuery(t, "ex.test", dnswire.TypeAXFR, func(q *dnswire.Message) { q.Response = true })
		}, tcp: true, verdict: flight.VerdictNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The allowlist penalizes nobody (it is not active); it is the
			// degraded level's reserve of known resolvers.
			reserve, probe := filters.NewAllowlist(), &probeFilter{}
			if tc.known {
				reserve.Add(benchSrc.Addr().String())
			}
			srv := outcomeServer(t, 1, reserve, probe)
			sc := scratchPool.Get().(*scratch)
			var frames bytes.Buffer
			sc.frames = &frames
			defer func() {
				sc.frames = nil
				scratchPool.Put(sc)
			}()
			if tc.prep != nil {
				tc.prep(t, srv, sc)
			}
			probe.penalty = tc.penalty
			if tc.fullQueue {
				for i := 0; i < queue.DefaultConfig().Capacity; i++ {
					srv.admission.Enqueue(0, nil)
				}
			}
			for i := 0; i < tc.inflight; i++ {
				srv.ladder.Enter()
			}
			wire := tc.wire(t)
			recs0, told0, hot0 := srv.flight.Recorded(), probe.told, srv.hotLen()
			e2e0 := histCount(srv, obs.MetricQueryDuration)

			reply := append([]byte(nil), srv.handlePacket(wire, benchSrc, tc.tcp, sc)...)

			for i := 0; i < tc.inflight; i++ {
				srv.ladder.Exit()
			}
			srv.admission.Drain()
			probe.penalty = 0
			if (len(reply) > 0) != tc.reply {
				t.Fatalf("reply %x, want one: %v", reply, tc.reply)
			}
			if tc.reply {
				// Every reply this table expects can be parsed down to its
				// rcode, the 12-octet FORMERR included.
				if got := dnswire.RCode(reply[3] & 0x0F); got != tc.rcode {
					t.Errorf("reply rcode %v, want %v", got, tc.rcode)
				}
			}
			n := 0
			for f, err := readFrame(&frames); err == nil; f, err = readFrame(&frames) {
				if n++; dnswire.RCode(f[3]&0x0F) != tc.rcode {
					t.Errorf("frame %d rcode %v, want %v", n, dnswire.RCode(f[3]&0x0F), tc.rcode)
				}
			}
			if n != tc.frames {
				t.Errorf("%d frames written, want %d", n, tc.frames)
			}
			if tc.verdict == flight.VerdictNone {
				if got := srv.flight.Recorded() - recs0; got != 0 {
					t.Fatalf("%d flight samples for a dropped packet", got)
				}
				return
			}
			if got := srv.flight.Recorded() - recs0; got != 1 {
				t.Fatalf("%d flight samples, want 1", got)
			}
			rec := srv.flight.Snapshot(1)[0]
			if rec.Verdict != tc.verdict || rec.RCode != uint8(tc.rcode) || rec.SuffixString() != tc.qname ||
				(rec.Flags&flight.FlagTCP != 0) != tc.tcp || tc.qtype != 0 && rec.QType != uint16(tc.qtype) {
				t.Errorf("flight sample: verdict %s rcode %d qname %q qtype %d flags %#x; want %s %d %q",
					rec.Verdict, rec.RCode, rec.SuffixString(), rec.QType, rec.Flags, tc.verdict, uint8(tc.rcode), tc.qname)
			}
			answered := tc.reply && tc.verdict != flight.VerdictShed && tc.verdict != flight.VerdictQuarantined
			if (rec.Latency != flight.LatencyUnknown) != answered {
				t.Errorf("flight sample latency %d for answered = %v", rec.Latency, answered)
			}
			if got := histCount(srv, obs.MetricQueryDuration) - e2e0; (got == 1) != answered || got > 1 {
				t.Errorf("%d end-to-end observations, answered = %v", got, answered)
			}
			if got := probe.told - told0; (got == 1) != tc.observed || got > 1 {
				t.Errorf("pipeline told of %d answers, want told: %v", got, tc.observed)
			} else if tc.observed {
				if want := string(dnswire.MustName(tc.qname).AppendWire(nil)); probe.last != want {
					t.Errorf("pipeline told of an answer for %q, want the folded %q", probe.last, want)
				}
			}
			if got := srv.hotLen() - hot0; (got == 1) != tc.inserted || got > 1 {
				t.Fatalf("%d hot-cache inserts, want one: %v", got, tc.inserted)
			}

			// A second name arrives by a route that never consults the hot
			// cache (ECS goes straight to decode): whatever the first packet
			// left pending must not put this reply under the first one's key.
			other := packQuery(t, "ns1.ex.test", dnswire.TypeA, withECS)
			if srv.handlePacket(other, benchSrc, false, sc) == nil {
				t.Fatal("follow-up query went unanswered")
			}
			if got := srv.hotLen() - hot0; (got == 1) != tc.inserted {
				t.Errorf("follow-up query changed the hot cache by %d entries", got)
			}
			v, ok := dnswire.ParseQueryView(wire)
			if !ok || tc.tcp {
				return
			}
			class, _, _ := sizeClassUDP(v)
			qfold, _ := v.AppendQnameFolded(nil, wire)
			routed, _, _ := srv.Engine.Store.FindWire(qfold)
			e, hit := srv.hotCache(sc).Lookup(v.AppendCacheKey(nil, wire, class), routed.Version())
			if hit != (tc.inserted || tc.verdict == flight.VerdictCached) {
				t.Fatalf("hot entry under this packet's key: %v", hit)
			}
			if hit {
				if e.Name.String() != tc.qname || e.RCode != tc.rcode {
					t.Errorf("hot entry %s %v under the key of %s", e.Name, e.RCode, tc.qname)
				}
				cached, err := dnswire.Unpack(e.Wire)
				if err != nil || len(cached.Questions) != 1 || cached.Questions[0].Name.String() != tc.qname {
					t.Errorf("hot entry wire under the key of %s: %v %v", tc.qname, cached, err)
				}
			}
		})
	}
}
