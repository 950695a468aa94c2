package netserve

import (
	"bytes"
	"testing"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/qod"
	"akamaidns/internal/queue"
	"akamaidns/internal/zone"
)

// TestAdmitEveryTier drives the one admission gate through each serving
// tier with the same query and requires the same disposition from all of
// them: per outcome, identical counter movement, identical disposal in the
// outcome, and — where a reply is owed — identical bytes. The single
// exception is the policy itself: the hot tier enters at LevelFull, so a
// cached answer survives clean-only shedding. Each call stands in for
// dispatch: it resets the outcome the way the prologue does and stops short
// of settle, routing the query first for the wire tiers as dispatch does.
func TestAdmitEveryTier(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	// An active allowlist that knows nobody scores every query at its
	// Penalty, which the test sets per outcome.
	knob := filters.NewAllowlist()
	knob.SetActive(true)
	srv := New(DefaultConfig(), nameserver.NewEngine(store), filters.NewPipeline(knob))
	wire, err := dnswire.NewQuery(0x4242, dnswire.MustName("WWW.ex.test"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	copy(wire[13:16], "WwW") // 0x20 casing the wire-level REFUSED must echo
	v, ok := dnswire.ParseQueryView(wire)
	if !ok {
		t.Fatal("probe query is not canonical")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	tiers := []struct {
		name    string
		served  flight.Verdict
		survive bool // answers at clean-only instead of refusing
		run     func(level int) []byte
	}{
		{"hot", flight.VerdictCached, true, func(int) []byte {
			if !srv.route(wire, v, sc) {
				t.Fatal("probe query not routed")
			}
			out, done := srv.handleFast(wire, v, benchSrc, sc)
			if !done {
				t.Fatal("hot tier missed a primed entry")
			}
			return out
		}},
		{"view", flight.VerdictView, false, func(level int) []byte {
			if !srv.route(wire, v, sc) {
				t.Fatal("probe query not routed")
			}
			out, done := srv.handleView(wire, v, benchSrc, sc, level)
			if !done {
				t.Fatal("view tier bailed on a plain query")
			}
			return out
		}},
		{"slow", flight.VerdictServed, false, func(level int) []byte {
			return srv.handleSlow(wire, benchSrc, false, sc, level)
		}},
	}
	// Prime the hot cache through the front door at a clean score.
	if srv.handlePacket(wire, benchSrc, false, sc) == nil {
		t.Fatal("priming query went unanswered")
	}

	smax := queue.DefaultConfig().Smax
	outcomes := []struct {
		name    string
		penalty float64
		level   int
		full    bool // rung-0 queue at capacity
		// expected movement for a tier that does not survive the outcome
		discarded, tailDropped, cleanOnly uint64
		rcode                             dnswire.RCode
		shed, replies                     bool
	}{
		{name: "pass", penalty: 0, level: qod.LevelCleanOnly, replies: true},
		{name: "discard", penalty: smax, level: qod.LevelFull, discarded: 1, shed: true},
		{name: "tail-drop", penalty: 0, level: qod.LevelFull, full: true, tailDropped: 1, shed: true},
		{name: "clean-only refuse", penalty: smax / 2, level: qod.LevelCleanOnly, cleanOnly: 1,
			rcode: dnswire.RCodeRefused, shed: true, replies: true},
	}
	for _, oc := range outcomes {
		knob.Penalty = oc.penalty
		if oc.full {
			for i := 0; i < queue.DefaultConfig().Capacity; i++ {
				srv.admission.Enqueue(0, nil)
			}
		}
		var ref *outcome // the first shedding tier's disposal
		var refReply []byte
		for _, tier := range tiers {
			survives := tier.survive && oc.name == "clean-only refuse"
			d0, td0 := srv.Metrics.Discarded.Load(), srv.Metrics.TailDropped.Load()
			co0 := srv.shed[qod.LevelCleanOnly].Load()
			sc.oc = outcome{verdict: flight.VerdictNone}
			reply := append([]byte(nil), tier.run(oc.level)...)
			d := srv.Metrics.Discarded.Load() - d0
			td := srv.Metrics.TailDropped.Load() - td0
			co := srv.shed[qod.LevelCleanOnly].Load() - co0
			if !oc.shed || survives {
				if d != 0 || td != 0 || co != 0 {
					t.Errorf("%s/%s: admitted query moved shed counters (%d/%d/%d)", oc.name, tier.name, d, td, co)
				}
				if sc.oc.verdict != tier.served {
					t.Errorf("%s/%s: verdict %s, want %s", oc.name, tier.name, sc.oc.verdict, tier.served)
				}
				if m, err := dnswire.Unpack(reply); err != nil || m.RCode != dnswire.RCodeNoError || len(m.Answers) != 1 {
					t.Errorf("%s/%s: admitted query not answered: %v %v", oc.name, tier.name, m, err)
				}
				continue
			}
			if d != oc.discarded || td != oc.tailDropped || co != oc.cleanOnly {
				t.Errorf("%s/%s: discarded/tail-dropped/clean-only moved %d/%d/%d, want %d/%d/%d",
					oc.name, tier.name, d, td, co, oc.discarded, oc.tailDropped, oc.cleanOnly)
			}
			if sc.oc.cacheable {
				t.Errorf("%s/%s: shed marked its reply replayable", oc.name, tier.name)
			}
			if (len(reply) > 0) != oc.replies {
				t.Errorf("%s/%s: reply %x, want a reply: %v", oc.name, tier.name, reply, oc.replies)
			}
			got := sc.oc
			if got.verdict != flight.VerdictShed || got.rcode != oc.rcode || !got.scored ||
				string(got.fq.Qname) != "\x03www\x02ex\x04test\x00" || got.fq.Type != dnswire.TypeA {
				t.Errorf("%s/%s: outcome %+v", oc.name, tier.name, got)
			}
			if ref == nil {
				ref, refReply = &got, reply
				continue
			}
			if got.fq.Resolver != ref.fq.Resolver || got.fq.Zone != ref.fq.Zone || got.zone != ref.zone {
				t.Errorf("%s/%s: outcome %+v differs from the first shedding tier's %+v", oc.name, tier.name, got, *ref)
			}
			if !bytes.Equal(reply, refReply) {
				t.Errorf("%s/%s: reply %x differs from the first shedding tier's %x", oc.name, tier.name, reply, refReply)
			}
		}
		if oc.replies && oc.shed {
			m, err := dnswire.Unpack(refReply)
			if err != nil || m.RCode != oc.rcode || m.ID != 0x4242 || len(m.Questions) != 1 || len(m.Answers) != 0 {
				t.Errorf("%s: shed reply %v %v", oc.name, m, err)
			}
			if !bytes.Equal(refReply[12:12+v.QnameLen], wire[12:12+v.QnameLen]) {
				t.Errorf("%s: shed reply did not echo the query's qname casing", oc.name)
			}
		}
		srv.admission.Drain()
	}
}

// TestQuestionLen covers the question measurement behind the gate's REFUSED
// for queries no tier holds a QueryView of.
func TestQuestionLen(t *testing.T) {
	hdr := make([]byte, 12)
	for _, tc := range []struct {
		name string
		body []byte
		want int
		ok   bool // refusedFor produces a reply
	}{
		{"root", []byte{0, 0, 1, 0, 1}, 5, true},
		{"two labels", []byte{1, 'a', 2, 'b', 'c', 0, 0, 1, 0, 1}, 10, true},
		{"pointer-terminated", []byte{1, 'a', 0xC0, 0x00, 0, 1, 0, 1}, 8, true},
		{"name runs off the packet", []byte{5, 'a'}, 14, false},
		{"no room for type and class", []byte{1, 'a', 0, 0}, 7, false},
		{"empty", nil, 12, false},
	} {
		wire := append(append([]byte(nil), hdr...), tc.body...)
		got := questionLen(wire)
		if got != tc.want {
			t.Errorf("%s: questionLen = %d, want %d", tc.name, got, tc.want)
		}
		if reply := refusedFor(wire, got, nil); (reply != nil) != tc.ok {
			t.Errorf("%s: refusedFor reply %x, want a reply: %v", tc.name, reply, tc.ok)
		}
	}
}
