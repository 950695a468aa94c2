package netserve

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/propagate"
	"akamaidns/internal/qod"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// simParityOther is the zone beside ex.test that no flood makes hot.
const simParityOther = `
$ORIGIN other.test.
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.3
www  IN A 192.0.2.30
`

// simParityStep is one query of the sequence, sent at a simulated time.
// Both servers read it: the simulation's scheduler runs to it, and the
// twin's filter and quarantine clock is set to it.
type simParityStep struct {
	at    simtime.Time
	src   netip.Addr
	qname string
	qtype dnswire.Type
	rd    bool
}

// simParityResult is what one server did with one query.
type simParityResult struct {
	scored     bool
	score      float64
	discarded  bool
	blocked    bool
	crashed    bool
	rcode      int // -1: no answer (dropped, discarded, crashed or blocked)
	admitted   uint64
	quarantine []qod.SignatureStatus // Expires zeroed: the clocks differ
	hot        []dnswire.Name
	flagged    uint64
}

// outcome names the quarantine's verdict on the query, read off what the
// server did: blocked, a probation probe that crashed and re-struck its
// entry, or a miss. (No trap name stops crashing, so no probe here is
// acquitted; each server's own tests cover that.)
func (r simParityResult) outcome(prev simParityResult) string {
	switch {
	case r.blocked:
		return "blocked"
	case r.crashed && r.admitted == prev.admitted:
		return "probation"
	}
	return "miss"
}

// scoreTally records the total penalty the pipeline gives the query in
// hand. It is the pipeline's last filter, so the running total it reads in
// q.Score is every other filter's sum. A socket server scores on every UDP
// worker, so the tally takes a lock.
type scoreTally struct {
	mu     sync.Mutex
	scored bool
	total  float64
}

func (*scoreTally) Name() string { return "tally" }

func (t *scoreTally) Score(q *filters.Query) float64 {
	t.mu.Lock()
	t.scored, t.total = true, q.Score
	t.mu.Unlock()
	return 0
}

// take reports the last query's total, if one was scored, and clears it.
func (t *scoreTally) take() (scored bool, total float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	scored, total = t.scored, t.total
	t.scored, t.total = false, 0
	return scored, total
}

// simParityPipeline builds one server's pipeline: the five production
// filters with the same learned history on both servers. The legitimate
// resolvers are allowlisted, learned at IP TTL 64 and loyal; the bot is
// learned at another TTL and at 1 qps. Loyalty learns from the answers as
// the pipeline lets it, from calm queries only, so it never learns the
// bot. A bot query scores 100, 140 once it outruns its bucket and 200 — a
// discard — once ex.test is hot and the name cannot exist.
func simParityPipeline(store *zone.Store, legit []netip.Addr, bot netip.Addr, tally *scoreTally) (*filters.Pipeline, *filters.NXDomain) {
	rl := filters.NewRateLimit()
	al := filters.NewAllowlist()
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	nx.Threshold = 40
	hc := filters.NewHopCount()
	lo := filters.NewLoyalty()
	for _, a := range legit {
		al.Add(a.String())
		hc.Learn(a.String(), 64)
		lo.Observe(a.String(), 0)
	}
	rl.Learn(bot.String(), 1)
	hc.Learn(bot.String(), 40)
	al.SetActive(true)
	hc.SetActive(true)
	lo.SetActive(true)
	return filters.NewPipeline(rl, al, nx, hc, lo, tally), nx
}

// simParitySequence is the seeded query sequence, 10 ms apart: clean
// traffic, an NXDOMAIN flood into ex.test beside it, crash-trap names in
// both zones between legitimate queries, then — after the quarantine TTL
// lapses — the trap names again.
func simParitySequence(seed int64, legit []netip.Addr, bot, attacker netip.Addr) []simParityStep {
	rng := rand.New(rand.NewSource(seed))
	var seq []simParityStep
	at := simtime.Time(0)
	add := func(s simParityStep) {
		at = at.Add(10 * time.Millisecond)
		s.at = at
		if s.qtype == 0 {
			s.qtype = dnswire.TypeA
		}
		s.rd = rng.Intn(2) == 0
		seq = append(seq, s)
	}
	clean := func() {
		names := []string{"www.ex.test", "mail.ex.test", "txt.ex.test", "www.other.test", "w1.wild.ex.test"}
		s := simParityStep{src: legit[rng.Intn(len(legit))], qname: names[rng.Intn(len(names))]}
		switch rng.Intn(8) {
		case 0: // a typo: NXDOMAIN, penalized only once its zone is hot
			s.qname = fmt.Sprintf("typo%d.ex.test", rng.Intn(1000))
		case 1:
			s.qname = fmt.Sprintf("typo%d.other.test", rng.Intn(1000))
		case 2:
			s.qtype = dnswire.TypeTXT
		}
		add(s)
	}
	for i := 0; i < 60; i++ {
		clean()
	}
	for i := 0; i < 160; i++ {
		if rng.Intn(3) == 0 {
			clean()
		}
		add(simParityStep{src: bot, qname: fmt.Sprintf("r%08x.ex.test", rng.Uint32())})
	}
	traps := []string{
		"x" + dnswire.QoDMarkerLabel + "0.ex.test",
		"x" + dnswire.QoDMarkerLabel + "1.ex.test",
		dnswire.QoDMarkerLabel + ".other.test",
	}
	trap := func() {
		s := simParityStep{src: attacker, qname: traps[rng.Intn(len(traps))]}
		if rng.Intn(3) == 0 {
			s.qtype = dnswire.TypeMX
		}
		add(s)
	}
	for i := 0; i < 40; i++ {
		if rng.Intn(2) == 0 {
			trap()
		} else {
			clean()
		}
	}
	// The quarantine TTL lapses on both servers.
	at = at.Add(nameserver.TQoD + nameserver.TQoD/2)
	add(simParityStep{src: attacker, qname: traps[0]})
	for i := 0; i < 30; i++ {
		if rng.Intn(2) == 0 {
			trap()
		} else {
			clean()
		}
	}
	return seq
}

func packStep(t *testing.T, id int, s simParityStep) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(uint16(id), dnswire.MustName(s.qname), s.qtype)
	q.RecursionDesired = s.rd
	return q
}

func quarantineRows(q *qod.Quarantine) []qod.SignatureStatus {
	rows := q.Snapshot()
	for i := range rows {
		rows[i].Expires = time.Time{}
	}
	return rows
}

func hotZones(nx *filters.NXDomain) []dnswire.Name {
	hot := nx.HotZones()
	sort.Slice(hot, func(i, j int) bool { return hot[i].Compare(hot[j]) < 0 })
	return hot
}

// TestSimSocketParity runs one seeded query sequence through the simulated
// nameserver — at a ComputeQPS that never queues — and through the socket
// server's socketless twin, over the same zones with the same pipeline, and
// holds them to the same per-query score, discard decision, quarantine
// outcome and NXDOMAIN feedback, and the same quarantine at the end. Tail
// drops are not compared: only the simulation models a CPU-bound queue,
// and here neither server's queue fills. Then each server gets a monitoring
// agent, the two built alike on the simulation's clock and fed one failing
// probe: both suspend at the same virtual instant, answer nothing while
// suspended, and resume at the same instant.
func TestSimSocketParity(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(batchParityZone, dnswire.MustName("ex.test")))
	store.Put(zone.MustParseMaster(simParityOther, dnswire.MustName("other.test")))
	legit := []netip.Addr{
		netip.MustParseAddr("192.0.2.101"), netip.MustParseAddr("192.0.2.102"), netip.MustParseAddr("192.0.2.103"),
	}
	bot := netip.MustParseAddr("203.0.113.66")
	attacker := netip.MustParseAddr("203.0.113.99")

	// The simulated server.
	var simTally scoreTally
	simPipe, simNX := simParityPipeline(store, legit, bot, &simTally)
	sched := simtime.NewScheduler()
	scfg := nameserver.DefaultConfig("sim")
	scfg.ComputeQPS = 1e6
	scfg.QoDFirewall = true
	sim := nameserver.NewServer(sched, scfg, nameserver.NewEngine(store), simPipe)

	// The socket server's twin, served without sockets.
	var netTally scoreTally
	netPipe, netNX := simParityPipeline(store, legit, bot, &netTally)
	ncfg := DefaultConfig()
	ncfg.TCPAddr = ""
	ncfg.QuarantineTTL = nameserver.TQoD
	twin := New(ncfg, nameserver.NewEngine(store), netPipe)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	simRun := func(id int, s simParityStep) simParityResult {
		before := sim.Snapshot()
		simTally.take()
		r := simParityResult{rcode: -1}
		sched.RunUntil(s.at)
		// IP TTL 64: what the socket server's admit assumes for every
		// packet until it reads the arriving TTL.
		req := &nameserver.Request{Resolver: s.src.String(), IPTTL: 64, Msg: packStep(t, id, s),
			Respond: func(_ simtime.Time, resp *dnswire.Message) { r.rcode = int(resp.RCode) }}
		sim.Receive(sched.Now(), req)
		sched.Run()
		after := sim.Snapshot()
		if after.TailDropped != 0 || after.IODropped != 0 {
			t.Fatalf("step %d: the simulated server dropped a query: %+v", id, after)
		}
		r.scored, r.score = simTally.take()
		r.discarded = after.Discarded > before.Discarded
		r.blocked = after.QoDBlocked > before.QoDBlocked
		r.crashed = after.Crashes > before.Crashes
		r.admitted = sim.Quarantine().Admitted()
		r.quarantine = quarantineRows(sim.Quarantine())
		r.hot, r.flagged = hotZones(simNX), simNX.Flagged.Load()
		return r
	}
	netRun := func(id int, s simParityStep) simParityResult {
		discarded, blocked, crashed := twin.Metrics.Discarded.Load(), twin.Metrics.QoDRefused.Load(), twin.Metrics.Panics.Load()
		netTally.take()
		r := simParityResult{rcode: -1}
		wire, err := packStep(t, id, s).Pack()
		if err != nil {
			t.Fatal(err)
		}
		// The twin's filter and quarantine clock reads the simulated time
		// of the step.
		twin.started = time.Now().Add(-s.at.Duration())
		resp := twin.handlePacket(wire, netip.AddrPortFrom(s.src, 5353), false, sc)
		// Let the off-path minimizer finish before the next packet.
		for twin.minimizing.Load() {
			time.Sleep(time.Millisecond)
		}
		r.scored, r.score = netTally.take()
		r.discarded = twin.Metrics.Discarded.Load() > discarded
		r.blocked = twin.Metrics.QoDRefused.Load() > blocked
		r.crashed = twin.Metrics.Panics.Load() > crashed
		if resp != nil && !r.blocked {
			m, err := dnswire.Unpack(resp)
			if err != nil {
				t.Fatalf("step %d: twin reply: %v", id, err)
			}
			r.rcode = int(m.RCode)
		}
		r.admitted = twin.Quarantine().Admitted()
		r.quarantine = quarantineRows(twin.Quarantine())
		r.hot, r.flagged = hotZones(netNX), netNX.Flagged.Load()
		return r
	}

	seq := simParitySequence(1, legit, bot, attacker)
	counts := map[string]int{}
	var prev simParityResult
	var discards int
	for i, s := range seq {
		want, got := simRun(i, s), netRun(i, s)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("step %d (%s %s %v from %v): servers disagree\n  simulation %+v\n  sockets    %+v",
				i, s.qname, s.qtype, s.at, s.src, want, got)
		}
		outcome := want.outcome(prev)
		if want.crashed {
			outcome += "+crash"
		}
		counts[outcome]++
		if want.discarded {
			discards++
		}
		prev = want
	}
	// The sequence reaches every path it is meant to compare.
	t.Logf("quarantine outcomes %v, %d discards, flagged %d, hot %v", counts, discards, prev.flagged, prev.hot)
	for _, o := range []string{"miss", "miss+crash", "blocked", "probation+crash"} {
		if counts[o] == 0 {
			t.Errorf("the sequence produced no %q outcome", o)
		}
	}
	if discards == 0 || prev.flagged == 0 || len(prev.hot) != 1 || prev.hot[0] != dnswire.MustName("ex.test") {
		t.Errorf("the flood did not make ex.test hot and discard: %d discards, flagged %d, hot %v",
			discards, prev.flagged, prev.hot)
	}
	if len(prev.quarantine) != 3 {
		t.Errorf("final quarantine %+v, want the three trap names", prev.quarantine)
	}

	// The suspension step. The twin now listens on a real UDP socket, since
	// its read loop is where a suspension discards.
	if err := twin.Start(); err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	failing := true
	probe := monitor.Probe{Name: "injected", Run: func(simtime.Time) error {
		if failing {
			return errors.New("injected fault")
		}
		return nil
	}}
	simLog, netLog := &suspendLog{Suspender: sim}, &suspendLog{Suspender: twin}
	for _, target := range []*suspendLog{simLog, netLog} {
		agent := monitor.NewAgent(propagate.SimClock{Sched: sched}, monitor.DefaultAgentConfig("parity"), target, nil)
		agent.AddProbe(probe)
		agent.Start()
		defer agent.Stop()
	}
	// answered sends www.other.test to each server from a legitimate
	// resolver and reports which of them answered.
	answered := func() (simAnswered, netAnswered bool) {
		t.Helper()
		q := dnswire.NewQuery(7, dnswire.MustName("www.other.test"), dnswire.TypeA)
		sim.Receive(sched.Now(), &nameserver.Request{Resolver: legit[0].String(), IPTTL: 64, Msg: q,
			Respond: func(simtime.Time, *dnswire.Message) { simAnswered = true }})
		sched.RunFor(time.Millisecond)
		_, err := Exchange(twin.UDPAddrActual(), q, false, 200*time.Millisecond)
		return simAnswered, err == nil
	}
	if s, n := answered(); !s || !n {
		t.Fatalf("before the fault: simulation answered %v, sockets answered %v", s, n)
	}
	sched.RunFor(10 * time.Second)
	if s, n := answered(); s || n {
		t.Fatalf("suspended: simulation answered %v, sockets answered %v", s, n)
	}
	failing = false
	sched.RunFor(10 * time.Second)
	if s, n := answered(); !s || !n {
		t.Fatalf("resumed: simulation answered %v, sockets answered %v", s, n)
	}
	if len(simLog.at) != 2 || !simLog.on[0] || simLog.on[1] ||
		!reflect.DeepEqual(simLog.at, netLog.at) || !reflect.DeepEqual(simLog.on, netLog.on) {
		t.Fatalf("suspension transitions differ: simulation at %v %v, sockets at %v %v",
			simLog.at, simLog.on, netLog.at, netLog.on)
	}
	t.Logf("both suspended at %v and resumed at %v", simLog.at[0], simLog.at[1])
}

// suspendLog records the suspension transitions an agent makes on the
// server it wraps, at the virtual instants it makes them.
type suspendLog struct {
	monitor.Suspender
	at []simtime.Time
	on []bool
}

func (l *suspendLog) SetSuspended(now simtime.Time, suspended bool) {
	l.at, l.on = append(l.at, now), append(l.on, suspended)
	l.Suspender.SetSuspended(now, suspended)
}
