// Package netserve runs the authoritative nameserver over real sockets:
// UDP (with EDNS-aware truncation) and TCP (length-framed, including AXFR
// and IXFR zone transfers on the same read path). It drives the exact same
// zone store, engine, and scoring pipeline as the simulation, so the
// Figure 10 testbed exercises production code paths.
//
// The UDP side is built for throughput: a configurable number of read
// loops over SO_REUSEPORT sockets (or a worker pool sharing one socket
// where the option is unavailable), each with its own reused buffers,
// query and response messages, so the steady state makes no garbage per
// packet, and its own packed-response hot cache that replays ready-to-send
// wire bytes for queries whose answers are identical for every client.
package netserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/qod"
	"akamaidns/internal/queue"
	"akamaidns/internal/simtime"
	"akamaidns/internal/udpbatch"
	"akamaidns/internal/zone"
)

// Config tunes the socket server.
type Config struct {
	// UDPAddr and TCPAddr are listen addresses ("127.0.0.1:5300"); empty
	// disables that listener.
	UDPAddr string
	TCPAddr string
	// UDPWorkers sets the number of parallel UDP read loops (default
	// GOMAXPROCS). On Linux each worker gets its own SO_REUSEPORT socket so
	// the kernel load-balances packets across independent receive queues;
	// elsewhere the workers share one socket.
	UDPWorkers int
	// UDPReadBuffer sets SO_RCVBUF (bytes) on every UDP listener: queue
	// depth is what turns a transient flood burst into latency instead of
	// loss, and what keeps recvmmsg batches full (0 = DefaultUDPReadBuffer;
	// negative keeps the OS default). The kernel clamps to
	// net.core.rmem_max; failures are ignored.
	UDPReadBuffer int
	// HotCacheSize bounds each UDP worker's hot cache (0 = nameserver.DefaultHotCacheSize).
	HotCacheSize int
	// AllowTransfer permits AXFR and IXFR over TCP.
	AllowTransfer bool
	// Cookies enables DNS Cookies (RFC 7873): server cookies are issued
	// and verified; queries with a valid server cookie have proven address
	// ownership and bypass the scoring pipeline (they cannot be class-4/5
	// spoofs).
	Cookies bool
	// RequireCookies additionally refuses UDP queries without a valid
	// server cookie (responding with a fresh cookie so legitimate clients
	// retry); TCP is exempt, as the handshake already proves the address.
	RequireCookies bool
	// CookieSecret keys server-cookie generation.
	CookieSecret uint64

	// QuarantineTTL is how long a signature stays quarantined before its
	// probationary re-admission (0 = default 30s).
	QuarantineTTL time.Duration
	// MaxInflight is the overload degradation ladder's in-flight handler
	// ceiling (0 disables the ladder). Shedding by reputation needs a
	// Pipeline; without one only the saturated-drop backstop applies.
	MaxInflight int

	// Flight enables the query flight recorder (nil disables): sampled
	// fixed-size query records with anomaly escalation, heavy-hitter
	// sketches, and the /debug/queries //debug/topk forensics surface.
	// DefaultConfig attaches one at default sampling. Its SampleEvery is also
	// the period at which the tracer stamps stage histograms.
	Flight *flight.Config
}

// DefaultUDPReadBuffer is the SO_RCVBUF request for each UDP listener:
// 4 MiB absorbs several milliseconds of full-rate flood per socket
// (subject to the net.core.rmem_max clamp).
const DefaultUDPReadBuffer = 4 << 20

// TCP limits: concurrently served connections (one beyond the cap is closed
// on accept, so a slowloris herd cannot pin every handler goroutine),
// queries served per connection before it is closed, and the read deadline
// each frame gets.
const (
	tcpMaxConns    = 256
	tcpMaxQueries  = 1024
	tcpReadTimeout = 5 * time.Second
)

// DefaultConfig listens on localhost ephemeral ports.
func DefaultConfig() Config {
	return Config{
		UDPAddr:       "127.0.0.1:0",
		TCPAddr:       "127.0.0.1:0",
		AllowTransfer: true,
		Flight:        &flight.Config{},
	}
}

// Metrics exposes the socket server's registry-backed counters. Every
// field is a live series on the server's registry — the same numbers a
// /metrics scrape reports.
type Metrics struct {
	UDPQueries   *obs.Counter
	TCPQueries   *obs.Counter
	Discarded    *obs.Counter
	TailDropped  *obs.Counter
	FormErr      *obs.Counter
	Truncated    *obs.Counter
	Transfers    *obs.Counter
	WriteErrors  *obs.Counter
	DecodeErrors *obs.Counter
	// SendShortfall counts datagrams a batched response flush could not
	// hand to the kernel (partial sendmmsg under egress pressure); each
	// shortfall datagram also counts as a WriteError.
	SendShortfall *obs.Counter
	// Panics counts handler panics contained by the recover boundary.
	Panics *obs.Counter
	// QoDRefused counts queries refused pre-decode by the quarantine.
	QoDRefused *obs.Counter
	// ViewServed counts responses assembled straight from compiled zone
	// views (the lock-free, allocation-free miss path).
	ViewServed *obs.Counter
	// TCPRejected counts connections closed at the TCP connection cap.
	TCPRejected *obs.Counter
}

// Server is the socket front-end.
type Server struct {
	Cfg      Config
	Engine   *nameserver.Engine
	Pipeline *filters.Pipeline
	Metrics  Metrics
	// Reg is the server's metric registry; serve it with obs.ServeWith for a
	// Prometheus-style /metrics endpoint.
	Reg *obs.Registry
	// Tracer stamps each query's end-to-end latency, and the lifecycle stages
	// of head-sampled queries, into Reg.
	Tracer *obs.Tracer
	// OnNotify, when set, receives RFC 1996 NOTIFY messages (secondaries
	// wire this to Secondary.Notify).
	OnNotify func(origin dnswire.Name)
	// History, when set, enables incremental zone transfer (IXFR): record
	// each zone version with History.Record after serial bumps.
	History *zone.History

	// admission is the §4.3.3 penalty ladder applied to scored queries
	// (built when a pipeline is configured): the default three rungs,
	// discard at S >= Smax, tail drop on overload, and per-queue depth
	// gauges on Reg.
	admission *queue.Q

	// caches lists every worker's packed-response hot cache (see hotCache),
	// for the scrape-time sums of their counters.
	cachesMu sync.Mutex
	caches   []*nameserver.HotCache
	// resolvers interns source-address strings so the per-packet filter
	// and engine keys stop allocating.
	resolvers internTable

	started time.Time
	udps    []*net.UDPConn
	tcp     net.Listener
	wg      sync.WaitGroup
	closed  atomic.Bool

	// Protection layer (protect.go): query-of-death quarantine consulted
	// pre-decode, the self-suspension a monitoring agent sets, and overload
	// degradation ladder.
	qodGuard   *qod.Quarantine
	suspended  atomic.Bool
	ladder     *qod.Ladder
	minimizing atomic.Bool
	shed       [qod.LevelSaturated + 1]*obs.Counter

	// flight is the query flight recorder (nil when disabled).
	flight *flight.Recorder
	// sampleEvery is the head-sampling period: every sampleEvery-th query a
	// worker dispatches is sampled (see scratch.sample).
	sampleEvery uint32

	// batchSize distributes how many datagrams each recvmmsg returned — a
	// direct read on how much syscall amortization the traffic admits.
	batchSize *obs.Histogram

	// TCP limits, set by New to the tcp* constants; tests shrink them
	// before Start.
	maxTCPConns, maxTCPQueries int
	readTimeout                time.Duration

	// Graceful drain and TCP connection bookkeeping.
	draining atomic.Bool
	tcpSem   chan struct{}
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
}

// New builds a server over the engine with a fresh metric registry.
// pipeline may be nil.
func New(cfg Config, eng *nameserver.Engine, pipeline *filters.Pipeline) *Server {
	return NewWithRegistry(cfg, eng, pipeline, obs.NewRegistry())
}

// NewWithRegistry builds a server reporting into an existing registry (for
// processes that aggregate several subsystems onto one /metrics endpoint).
func NewWithRegistry(cfg Config, eng *nameserver.Engine, pipeline *filters.Pipeline, reg *obs.Registry) *Server {
	s := &Server{Cfg: cfg, Engine: eng, Pipeline: pipeline, Reg: reg, started: time.Now(),
		maxTCPConns: tcpMaxConns, maxTCPQueries: tcpMaxQueries, readTimeout: tcpReadTimeout}
	helpQ := "Queries received over real sockets by transport."
	s.Metrics = Metrics{
		UDPQueries:   reg.Counter(obs.MetricQueriesTotal, helpQ, "transport", "udp"),
		TCPQueries:   reg.Counter(obs.MetricQueriesTotal, helpQ, "transport", "tcp"),
		Discarded:    reg.Counter(obs.MetricDiscardedTotal, "Queries discarded by the scoring pipeline at S >= Smax."),
		TailDropped:  reg.Counter(obs.MetricTailDroppedTotal, "Queries dropped because their penalty queue was full."),
		FormErr:      reg.Counter(obs.MetricFormErrTotal, "FORMERR responses."),
		Truncated:    reg.Counter(obs.MetricTruncatedTotal, "Truncated UDP responses."),
		Transfers:    reg.Counter(obs.MetricTransfersTotal, "Zone transfers served (AXFR and IXFR)."),
		WriteErrors:  reg.Counter(obs.MetricWriteErrorsTotal, "Response encode/write failures."),
		DecodeErrors: reg.Counter(obs.MetricDecodeErrorsTotal, "Undecodable queries."),
		ViewServed:   reg.Counter(obs.MetricViewServedTotal, "Responses assembled from compiled zone views."),
		SendShortfall: reg.Counter(obs.MetricSendShortfallTotal,
			"Response datagrams dropped by partial sendmmsg flushes."),
	}
	s.batchSize = reg.Histogram(obs.MetricUDPBatchSize,
		"Datagrams returned per batched UDP read.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	// Compiled-view health, read off the store's own atomics at scrape time
	// (an install storm shows up as these racing; view bytes over hosted
	// zones is the memory each zone costs to serve).
	reg.CounterFunc(obs.MetricViewRebuildsTotal, "Compiled zone views installed: one per hosted zone version.",
		func() float64 { return float64(eng.Store.ViewRebuilds()) })
	reg.GaugeFunc(obs.MetricViewBytes, "Heap bytes of the hosted zones, each held as its compiled view.",
		func() float64 { return float64(eng.Store.ViewBytes()) })
	reg.GaugeFunc(obs.MetricRouterRebuilds, "Zone set republishes: the store generation.",
		func() float64 { return float64(eng.Store.Gen()) })
	reg.GaugeFunc(obs.MetricRouterShardRebuilds,
		"Router shard maps cloned across rebuilds (dirty-shard width).",
		func() float64 { return float64(eng.Store.ShardRebuilds()) })
	s.Tracer = obs.NewTracer(reg)
	if pipeline != nil {
		pipeline.Instrument(reg)
		s.admission = queue.MustNew(queue.DefaultConfig())
		s.admission.Instrument(reg)
	}
	// The hot-cache series, summed across the workers' caches at scrape time.
	reg.CounterFunc(obs.MetricHotCacheHitsTotal,
		"Queries answered from the packed-response hot cache.",
		func() float64 { h, _, _, _ := s.hotTotals(); return float64(h) })
	reg.CounterFunc(obs.MetricHotCacheMissesTotal,
		"Hot-cache-eligible queries that required a full lookup.",
		func() float64 { _, m, _, _ := s.hotTotals(); return float64(m) })
	reg.CounterFunc(obs.MetricHotCacheEvictionsTotal,
		"Hot-cache entries dropped: recycled at capacity, or replaced after their zone's version changed.",
		func() float64 { _, _, e, _ := s.hotTotals(); return float64(e) })
	reg.GaugeFunc(obs.MetricHotCacheEntries,
		"Packed responses currently resident in the workers' hot caches.",
		func() float64 { _, _, _, n := s.hotTotals(); return float64(n) })
	s.qodGuard = qod.NewQuarantine(qod.DefaultQuarantineMax, cfg.QuarantineTTL)
	if cfg.MaxInflight > 0 {
		s.ladder = qod.NewLadder(cfg.MaxInflight)
	}
	s.sampleEvery = flight.DefaultSampleEvery
	if cfg.Flight != nil {
		s.flight = flight.New(*cfg.Flight, reg)
		s.sampleEvery = uint32(s.flight.SampleEvery())
	}
	s.instrumentProtection(reg)
	return s
}

// now maps wall time onto the virtual timeline the filters expect.
func (s *Server) now() simtime.Time {
	return simtime.Time(time.Since(s.started))
}

// qodNow is the quarantine's clock: the same timeline as now, on the
// time.Time the quarantine keeps, as the simulated server's quarantine
// reads its virtual clock.
func (s *Server) qodNow() time.Time {
	return time.Time{}.Add(time.Since(s.started))
}

// internTable maps source addresses to their canonical string form once,
// so the per-packet filter and engine keys stop paying netip.Addr.String.
// Bounded: a flood of distinct spoofed sources resets the table rather than
// growing it without limit.
type internTable struct {
	mu sync.RWMutex
	m  map[netip.Addr]string
}

const internTableMax = 1 << 16

func (t *internTable) key(a netip.Addr) string {
	a = a.Unmap()
	t.mu.RLock()
	s, ok := t.m[a]
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = a.String()
	t.mu.Lock()
	if t.m == nil || len(t.m) >= internTableMax {
		t.m = make(map[netip.Addr]string)
	}
	t.m[a] = s
	t.mu.Unlock()
	return s
}

func (s *Server) resolverKey(a netip.Addr) string { return s.resolvers.key(a) }

// scratch is the per-worker reusable state: the query and response
// messages whose sections survive across packets, a response wire buffer, a
// hot-cache key buffer and the worker's hot cache, and the outcome of the
// query in hand. UDP read loops hold one for their lifetime; TCP
// connections borrow one from the pool and set frames.
type scratch struct {
	q    dnswire.Message
	resp dnswire.Message
	out  []byte
	key  []byte
	// hot is the worker's packed-response cache, bound to server hotFor on
	// the first packet that consults it (see Server.hotCache).
	hot    *nameserver.HotCache
	hotFor *Server
	// vq holds the case-folded wire-form qname the wire tiers routed on, or
	// the decode path scored; a scored query's oc.fq.Qname aliases it (kept
	// separate from key, which may carry a live cache-insert key).
	vq []byte
	oc outcome
	// journal is the worker's crash journal, built lazily on the first
	// packet and kept for the scratch's lifetime.
	journal *qod.Journal
	// fw is the flight-recorder capture handle, built lazily on the first
	// packet and kept for the scratch's lifetime.
	fw *flight.Worker
	// tick counts the queries dispatched through this scratch since the last
	// sampled one: the serving path's one sampling counter (see sample).
	tick uint32
	// frames is the TCP connection the query arrived on (nil on UDP): a
	// zone transfer writes its stream of frames there itself.
	frames io.Writer
}

// sample draws a query's head-sampling decision: one query in every
// dispatched through the scratch is sampled. The span's stage marks and the
// flight recorder's head sample both follow it, so neither counts on its own.
func (sc *scratch) sample(every uint32) bool {
	if sc.tick++; sc.tick < every {
		return false
	}
	sc.tick = 0
	return true
}

// outcome is the only state that crosses tiers: dispatch resets it, each
// tier writes what it decided about the query in hand, and settle acts on
// it. It lives in the scratch so that the scored filters.Query — which
// escapes through the Filter interface — costs no allocation.
type outcome struct {
	// sampled is the query's head-sampling decision; span carries it too.
	sampled bool
	span    obs.Span
	// fq is the query as the pipeline scored it, meaningful once scored is
	// set — which is also what keeps a later tier from admitting it again.
	fq     filters.Query
	scored bool
	// fill is a hot-cache miss asking for the answering tier's reply: the
	// key is left in scratch.key, floor the size-class payload the reply must
	// fit.
	fill  bool
	floor int
	// from is the zone version the reply is built from: the one route found,
	// or the one the decode path answered from (nil: no zone). A fill is
	// filed under its Version.
	from *zone.Zone
	// The disposal. verdict stays VerdictNone for a silently filtered
	// packet. qnameWire aliases the packet when it parsed canonically — as
	// it always has on the wire tiers — name is the question name the
	// decode path parsed, zone the matched zone; cacheable marks a reply
	// replayable for every client of its size class.
	verdict   flight.Verdict
	rcode     dnswire.RCode
	qtype     dnswire.Type
	qnameWire []byte
	name      dnswire.Name
	zone      dnswire.Name
	cacheable bool
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		out: make([]byte, 0, 4096),
		key: make([]byte, 0, 512),
		vq:  make([]byte, 0, 256),
	}
}}

// Start opens the listeners and serves until Close.
func (s *Server) Start() error {
	if s.Cfg.UDPAddr != "" {
		workers := s.Cfg.UDPWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		conns, err := listenUDPGroup(s.Cfg.UDPAddr, workers)
		if err != nil {
			return err
		}
		// Deep receive queues: a flood arrives faster than any reader can
		// drain for a few milliseconds at a time; queue depth is what turns
		// that into latency instead of loss, and what keeps recvmmsg
		// batches full. Clamped by net.core.rmem_max; best effort.
		rb := s.Cfg.UDPReadBuffer
		if rb == 0 {
			rb = DefaultUDPReadBuffer
		}
		if rb > 0 {
			for _, c := range conns {
				c.SetReadBuffer(rb)
			}
		}
		// One read loop per worker, each owning its batch arena: a shared
		// socket is drained by all of them, an SO_REUSEPORT group by one
		// worker per kernel-balanced socket.
		batches := make([]*udpbatch.Conn, workers)
		for i := range batches {
			if batches[i], err = udpbatch.New(conns[i%len(conns)], udpBatch); err != nil {
				closeAll(conns)
				return fmt.Errorf("netserve: udp batch arena: %w", err)
			}
		}
		s.udps = conns
		for i, bc := range batches {
			s.wg.Add(1)
			go s.serveUDP(bc, conns[i%len(conns)])
		}
	}
	if s.Cfg.TCPAddr != "" {
		var err error
		s.tcp, err = net.Listen("tcp", s.Cfg.TCPAddr)
		if err != nil {
			// The UDP loops are already running; closing their sockets
			// retires them.
			closeAll(s.udps)
			return err
		}
		s.tcpSem = make(chan struct{}, s.maxTCPConns)
		s.wg.Add(1)
		go s.serveTCP()
	}
	return nil
}

// listenUDPGroup opens the UDP listeners for n workers: n SO_REUSEPORT
// sockets bound to the same address where the platform supports it, one
// shared socket otherwise. The first socket determines the port for ":0"
// binds.
func listenUDPGroup(addr string, n int) ([]*net.UDPConn, error) {
	single := func() ([]*net.UDPConn, error) {
		a, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		c, err := net.ListenUDP("udp", a)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{c}, nil
	}
	if n <= 1 || !reusePortAvailable {
		return single()
	}
	lc := reusePortListenConfig()
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		// Kernel refused the option; fall back to one shared socket.
		return single()
	}
	conns := []*net.UDPConn{pc.(*net.UDPConn)}
	bound := conns[0].LocalAddr().String()
	for len(conns) < n {
		pc, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	// The group contract UDPAddrActual relies on: every member bound the
	// same port. The loop above binds to the first socket's resolved
	// address, so a mismatch means the kernel or a Control hook rebound a
	// member — refuse to serve split-brained rather than report udps[0]
	// for a group that isn't one.
	port0 := conns[0].LocalAddr().(*net.UDPAddr).Port
	for _, c := range conns[1:] {
		if p := c.LocalAddr().(*net.UDPAddr).Port; p != port0 {
			closeAll(conns)
			return nil, fmt.Errorf("netserve: SO_REUSEPORT group split across ports %d and %d", port0, p)
		}
	}
	return conns, nil
}

func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// UDPAddrActual reports the bound UDP address (for :0 listeners). With
// an SO_REUSEPORT worker group every socket is bound to the same
// address — listenUDPGroup asserts the ports agree at startup — so index
// 0 is the canonical answer for the whole group.
func (s *Server) UDPAddrActual() string {
	if len(s.udps) == 0 {
		return ""
	}
	return s.udps[0].LocalAddr().String()
}

// TCPAddrActual reports the bound TCP address.
func (s *Server) TCPAddrActual() string {
	if s.tcp == nil {
		return ""
	}
	return s.tcp.Addr().String()
}

// Close stops the listeners and waits for handlers.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	closeAll(s.udps)
	if s.tcp != nil {
		s.tcp.Close()
	}
	s.wg.Wait()
}

// handlePacket serves one message under the self-protective layer: the
// overload ladder, the pre-decode quarantine check, the crash journal, and
// the recover boundary around dispatch. The steady-state overhead is a
// handful of nil checks, one atomic quarantine-length load, and a bounded
// copy into the journal slot. A query this layer disposes of itself —
// saturated drop, quarantine refusal, contained panic — reaches settle with
// its verdict like one a tier answered. The returned slice is valid until
// the next handlePacket call with the same scratch.
func (s *Server) handlePacket(wire []byte, src netip.AddrPort, tcp bool, sc *scratch) (resp []byte) {
	level := qod.LevelFull
	if s.ladder != nil {
		level = s.ladder.Enter()
		defer s.ladder.Exit()
		if level == qod.LevelSaturated {
			// Above the ceiling nothing is answered — the silent drop the
			// kernel would otherwise apply to the socket backlog, except
			// accounted for.
			s.shed[qod.LevelSaturated].Add(1)
			sc.oc = outcome{verdict: flight.VerdictShed}
			return s.settle(nil, src, tcp, sc)
		}
	}
	var probation *qod.Entry
	if s.qodGuard.Len() > 0 {
		// Quarantine consultation happens before any decoding beyond the
		// allocation-free view parse, so a quarantined pattern costs
		// near-nothing no matter how hard it hits.
		if v, ok := dnswire.ParseQueryView(wire); ok {
			e, state := s.qodGuard.Check(v.QnameWire(wire), uint16(v.QType), v.Flags, s.qodNow())
			switch state {
			case qod.Blocked:
				s.Metrics.QoDRefused.Add(1)
				sc.oc = outcome{verdict: flight.VerdictQuarantined, qnameWire: v.QnameWire(wire), qtype: v.QType}
				return s.settle(s.refuse(wire, v.QnameLen+4, sc), src, tcp, sc)
			case qod.Probation:
				// TTL lapsed: this query is the re-admission probe. If it
				// completes we acquit after dispatch; if it panics, the
				// acquittal is never reached and containPanic re-strikes
				// the entry with a longer TTL.
				probation = e
			}
		}
	}
	if sc.journal == nil {
		sc.journal = qod.NewJournal(0, 0)
	}
	sc.journal.Record(wire)
	defer func() {
		if r := recover(); r != nil {
			s.containPanic(r, wire, sc.journal)
			// The quarantine and journal have the packet; the recorder gets
			// the verdict, beside whatever dispatch had stamped of the
			// question before the panic.
			sc.oc.verdict, sc.oc.rcode = flight.VerdictCrashed, 0
			resp = s.settle(nil, src, tcp, sc)
		}
	}()
	resp = s.dispatch(wire, src, tcp, sc, level)
	if probation != nil {
		s.qodGuard.Acquit(probation)
	}
	return resp
}

// dispatch is the read path between its one prologue and its one epilogue.
// The prologue draws the query's sampling decision, resets the worker's
// outcome, opens the query's single span and parses the canonical shape
// once for every tier. The tiers are a ladder of progressively more
// expensive ways to decide the answer: the
// packed-response hot cache (exact repeats), the compiled-view wire
// assembly (any canonical-shape query, including cache-busting misses),
// then the full decode/answer/encode slow path — shedding per the
// degradation level on the way. They only decide: each writes what it
// concluded into the outcome and returns, and settle acts on it.
func (s *Server) dispatch(wire []byte, src netip.AddrPort, tcp bool, sc *scratch, level int) []byte {
	sampled := sc.sample(s.sampleEvery)
	sc.oc = outcome{verdict: flight.VerdictNone, sampled: sampled, span: s.Tracer.Begin(sampled)}
	oc := &sc.oc
	v, canonical := dnswire.ParseQueryView(wire)
	if canonical {
		if v.Response() {
			return nil // QR-bit filtering: reflection junk is dropped silently
		}
		oc.qnameWire, oc.qtype = v.QnameWire(wire), v.QType
	}
	// The wire tiers serve only UDP answers that are the same for every
	// client. Tailored answers, and the refuse-with-cookie every cookie-less
	// UDP query must get under RequireCookies, are the slow path's business.
	wireTiers := !tcp && canonical && clientAgnostic(v) && s.Engine.Tailor == nil && !s.Cfg.RequireCookies &&
		s.route(wire, v, sc)
	var resp []byte
	done := false
	if wireTiers {
		resp, done = s.handleFast(wire, v, src, sc)
	}
	if !done && level >= qod.LevelDegraded && s.Pipeline != nil &&
		!s.Pipeline.Allowlisted(s.resolverKey(src.Addr())) {
		// Degraded: the expensive slow path is reserved for historically-
		// known resolvers; everyone else gets hot-cache answers (above) or
		// this cheap wire-level REFUSED.
		s.shed[qod.LevelDegraded].Add(1)
		oc.verdict = flight.VerdictShed
		if canonical {
			resp = s.refuse(wire, v.QnameLen+4, sc)
		}
		done = true
	}
	if !done && wireTiers {
		resp, done = s.handleView(wire, v, src, sc, level)
	}
	if !done {
		resp = s.handleSlow(wire, src, tcp, sc, level)
	}
	return s.settle(resp, src, tcp, sc)
}

// route folds the question name into sc.vq and routes it once for both wire
// tiers, leaving the zone version — nil when none is authoritative — in
// sc.oc.from. It reports false for a name the wire tiers leave to the decode
// path: a label byte the name parser would reject, or a crash-trap name,
// which must reach the engine inside the containment boundary.
func (s *Server) route(wire []byte, v dnswire.QueryView, sc *scratch) bool {
	qfold, ok := v.AppendQnameFolded(sc.vq[:0], wire)
	sc.vq = qfold
	if !ok || bytes.Contains(qfold, qodMarkerWire) {
		return false
	}
	sc.oc.from, _, _ = s.Engine.Store.FindWire(qfold)
	return true
}

// clientAgnostic reports whether a canonical-shape query is one the wire
// tiers may answer from shared bytes: a plain IN-class QUERY for a concrete
// type, carrying no option that makes the answer client-specific (ECS
// tailoring, cookie echo).
func clientAgnostic(v dnswire.QueryView) bool {
	if v.OpCode() != dnswire.OpQuery || v.QClass != dnswire.ClassINET {
		return false
	}
	switch v.QType {
	case dnswire.TypeAXFR, dnswire.TypeIXFR, dnswire.TypeANY:
		return false
	}
	return !v.HasECS && !v.HasCookie
}

// unscored reports whether the query in hand still owes the §4.3.3 gate its
// one visit; a tier that sees true fills sc.oc.fq and calls admit. It is
// false on a server that scores nothing, which therefore builds no
// filters.Query, and false for a query an earlier tier admitted and then
// could not answer, so no query is charged to its resolver twice.
func (s *Server) unscored(sc *scratch) bool {
	return s.admission != nil && !sc.oc.scored
}

// admit is the one §4.3.3 gate, passed once by a scored query whichever
// tiers it crosses: the pipeline's penalty for sc.oc.fq decides discard
// (S >= Smax), tail drop (that penalty's queue is full) or — at
// LevelCleanOnly, ≥85% of the in-flight ceiling, where only the
// lowest-penalty rung is worth the remaining capacity — a wire-level
// REFUSED. Serving is synchronous, so an admitted query passes straight
// through the ladder; the decisions, the counters and the depth gauges are
// the production ones. It reports ok=false when the query was shed, with the
// reply to send (nil: drop silently) and the shed verdict in the outcome.
func (s *Server) admit(wire []byte, level int, sc *scratch) (reply []byte, ok bool) {
	oc := &sc.oc
	oc.scored = true
	oc.fq.IPTTL = 64 // kernel does not expose arriving TTL portably
	oc.fq.Now = s.now()
	score, _ := s.Pipeline.Score(&oc.fq)
	oc.span.Mark(obs.StageScore)
	fate := s.admission.Admit(score)
	switch {
	case fate == queue.Discarded:
		s.Metrics.Discarded.Add(1)
	case fate == queue.TailDropped:
		s.Metrics.TailDropped.Add(1)
	case level >= qod.LevelCleanOnly && s.admission.Rung(score) > 0:
		s.shed[qod.LevelCleanOnly].Add(1)
		reply = s.refuse(wire, questionLen(wire), sc)
	default:
		oc.span.Mark(obs.StageQueue)
		return nil, true
	}
	oc.verdict = flight.VerdictShed
	return reply, false
}

// refuse builds the wire-level REFUSED a shed or quarantined query gets
// into the scratch's response buffer and stamps the rcode; a packet too
// short to carry its question gets no reply.
func (s *Server) refuse(wire []byte, qlen int, sc *scratch) []byte {
	out := refusedFor(wire, qlen, sc.out[:0])
	if out != nil {
		sc.oc.rcode = dnswire.RCodeRefused
		sc.out = out
	}
	return out
}

// settle is the read path's one epilogue: everything that follows from how
// a query was disposed of happens here, once, and nowhere else. In order:
// the pipeline learns from the answer to a scored query (a zone's NXDOMAIN
// count), the hot cache takes the reply a miss asked for, the span closes
// (one end-to-end observation per answered query, none for a shed or
// dropped one), and the flight recorder is offered the sample. A zone
// transfer writes its own frames and hands settle no reply, so it gets its
// flight sample and nothing else. It returns resp.
func (s *Server) settle(resp []byte, src netip.AddrPort, tcp bool, sc *scratch) []byte {
	oc := &sc.oc
	// Verdicts up to VerdictView mean a tier decided the answer (encoding it
	// may still have failed); everything above is a disposal without one.
	if oc.scored && oc.verdict <= flight.VerdictView {
		s.Pipeline.ObserveAnswer(&oc.fq, oc.rcode == dnswire.RCodeNXDomain)
	}
	// Only an answering tier marks its reply replayable; it must also fit
	// the smallest payload a member of the key's size class may advertise.
	if oc.fill && oc.cacheable && resp != nil && len(resp) <= oc.floor {
		sc.hot.Insert(sc.key, &nameserver.HotEntry{
			Wire:     resp,
			QnameLen: len(oc.qnameWire),
			Zone:     oc.zone,
			RCode:    oc.rcode,
		}, oc.from.Version())
	}
	answered := resp != nil && oc.verdict != flight.VerdictShed && oc.verdict != flight.VerdictQuarantined
	latency := time.Duration(-1)
	if answered {
		latency = oc.span.End()
	}
	if s.flight != nil && oc.verdict != flight.VerdictNone {
		// The scratch pool is process-global: a pooled scratch may carry a
		// capture handle bound to another (test) server's recorder, so the
		// lazy bind re-checks ownership, not just presence.
		if sc.fw == nil || sc.fw.Recorder() != s.flight {
			sc.fw = s.flight.Worker()
		}
		sample := flight.Sample{
			QnameWire: oc.qnameWire,
			Src:       src,
			Latency:   latency,
			QType:     uint16(oc.qtype),
			RCode:     uint8(oc.rcode),
			Verdict:   oc.verdict,
			TCP:       tcp,
			Sampled:   oc.sampled,
		}
		// Name strings are interned, so neither rendering allocates.
		if sample.QnameWire == nil && !oc.name.IsZero() {
			sample.Qname = oc.name.String()
		}
		if !oc.zone.IsZero() {
			sample.Zone = oc.zone.String()
		}
		sc.fw.Observe(sample)
	}
	return resp
}

// hotCache returns the worker's packed-response cache, binding a new one to
// the scratch on its first cache-eligible packet for this server. A UDP
// read loop keeps its scratch, hence its cache, for its lifetime, so every
// cache has one owner and needs no lock; TCP never consults one.
func (s *Server) hotCache(sc *scratch) *nameserver.HotCache {
	if sc.hotFor != s {
		sc.hot, sc.hotFor = nameserver.NewHotCache(s.Cfg.HotCacheSize), s
		s.cachesMu.Lock()
		s.caches = append(s.caches, sc.hot)
		s.cachesMu.Unlock()
	}
	return sc.hot
}

// hotTotals sums the workers' hot-cache counters and entry counts.
func (s *Server) hotTotals() (hits, misses, evictions uint64, entries int) {
	s.cachesMu.Lock()
	defer s.cachesMu.Unlock()
	for _, c := range s.caches {
		h, m, e := c.Stats()
		hits, misses, evictions, entries = hits+h, misses+m, evictions+e, entries+c.Len()
	}
	return hits, misses, evictions, entries
}

// sizeClassUDP buckets a query's advertised payload limit so one cached
// wire can serve every client in the bucket: the cached response is fitted
// to the bucket's floor, the smallest limit a member may have advertised.
// Clients advertising below the classic 512-octet minimum are eccentric
// enough to take the slow path.
func sizeClassUDP(v dnswire.QueryView) (class byte, floor int, ok bool) {
	if !v.HasOPT {
		return 2, dnswire.MaxUDPPayload, true
	}
	size := int(v.UDPSize)
	switch {
	case size < dnswire.MaxUDPPayload:
		return 0, 0, false
	case size < 1232:
		return 3, dnswire.MaxUDPPayload, true
	case size < 4096:
		return 4, 1232, true
	default:
		return 5, 4096, true
	}
}

// handleFast attempts the packed-response path for a routed query. It
// reports done=false when the query must go further down the tiers — an
// eccentric payload size, or no entry filed under the routed zone's version,
// in which case the outcome asks the answering tier's reply to be inserted.
// On a hit the cached wire is replayed with the ID, RD bit, and qname casing
// patched, so 0x20 mixed-case encoding round-trips exactly.
func (s *Server) handleFast(wire []byte, v dnswire.QueryView, src netip.AddrPort, sc *scratch) ([]byte, bool) {
	class, floor, ok := sizeClassUDP(v)
	if !ok {
		return nil, false
	}
	oc := &sc.oc
	sc.key = v.AppendCacheKey(sc.key[:0], wire, class)
	e, hit := s.hotCache(sc).Lookup(sc.key, oc.from.Version())
	if !hit {
		oc.fill, oc.floor = true, floor
		return nil, false
	}
	// Cached answers score and pass admission exactly like slow-path ones,
	// using the folded name route compared and the entry's zone — but at
	// LevelFull: a hot answer costs less than refusing it, so it survives
	// clean-only.
	if s.unscored(sc) {
		oc.fq = filters.Query{Resolver: s.resolverKey(src.Addr()), Qname: sc.vq, Type: v.QType, Zone: e.Zone}
		if reply, ok := s.admit(wire, qod.LevelFull, sc); !ok {
			return reply, true
		}
	}
	oc.span.Mark(obs.StageLookup)
	oc.verdict, oc.rcode, oc.zone = flight.VerdictCached, e.RCode, e.Zone
	out := append(sc.out[:0], e.Wire...)
	out[0], out[1] = byte(v.ID>>8), byte(v.ID)
	if v.RecursionDesired() {
		out[2] |= 0x01
	} else {
		out[2] &^= 0x01
	}
	// Restore the client's exact qname spelling (0x20 case randomization).
	copy(out[12:12+v.QnameLen], wire[12:12+v.QnameLen])
	sc.out = out
	oc.span.Mark(obs.StageWrite)
	return out, true
}

// handleSlow decodes, scores, answers, and encodes one message: the
// reference path every wire tier is differentially tested against. Returns
// nil when the query is dropped (discard or undecodable with no usable
// header). The tracer stamps each stage: receive (decode) → cookie →
// score → queue → lookup → write (encode/truncate).
func (s *Server) handleSlow(wire []byte, src netip.AddrPort, tcp bool, sc *scratch, level int) []byte {
	oc := &sc.oc
	q := &sc.q
	err := dnswire.UnpackInto(q, wire)
	oc.span.Mark(obs.StageReceive)
	if err != nil {
		s.Metrics.DecodeErrors.Add(1)
		oc.verdict = flight.VerdictError
		out := formErrFor(wire, sc.out[:0])
		if out != nil {
			oc.rcode = dnswire.RCodeFormErr
			sc.out = out
		}
		return out
	}
	if q.Response {
		return nil // QR-bit filtering: reflection junk never reaches the engine
	}
	if len(q.Questions) == 1 {
		oc.name, oc.qtype = q.Questions[0].Name, q.Questions[0].Type
	}
	if q.OpCode == dnswire.OpNotify {
		// RFC 1996: acknowledge and hand off to the refresh machinery.
		if s.OnNotify != nil && len(q.Questions) == 1 {
			s.OnNotify(q.Questions[0].Name)
		}
		oc.verdict = flight.VerdictServed
		r := dnswire.NewResponse(q)
		r.Authoritative = true
		out, err := r.AppendPack(sc.out[:0])
		if err != nil {
			return nil
		}
		sc.out = out
		return out
	}
	if tcp && q.OpCode == dnswire.OpQuery && len(q.Questions) == 1 &&
		(oc.qtype == dnswire.TypeAXFR || oc.qtype == dnswire.TypeIXFR) {
		// A zone transfer writes its own frames and leaves settle no reply.
		// Transfers are not scored.
		oc.verdict, oc.rcode = flight.VerdictServed, s.transfer(q, sc.frames)
		return nil
	}
	// DNS Cookies: a valid server cookie proves the source address.
	var clientCookie *dnswire.Cookie
	cookieValid := false
	if s.Cfg.Cookies {
		if ck, ok := dnswire.CookieFromMessage(q); ok {
			clientCookie = &ck
			cookieValid = dnswire.VerifyServerCookie(ck, src.Addr(), s.Cfg.CookieSecret)
		}
		if s.Cfg.RequireCookies && !tcp && !cookieValid {
			// Refuse, attaching the correct cookie so a real (non-spoofed)
			// client can immediately retry with it.
			oc.verdict, oc.rcode = flight.VerdictServed, dnswire.RCodeRefused
			r := dnswire.NewResponse(q)
			r.RCode = dnswire.RCodeRefused
			opt := dnswire.NewOPT(1232)
			if clientCookie != nil {
				opt.SetCookie(dnswire.Cookie{
					Client: clientCookie.Client,
					Server: dnswire.ComputeServerCookie(clientCookie.Client, src.Addr(), s.Cfg.CookieSecret),
				})
			}
			r.Additional = append(r.Additional, opt)
			out, err := r.AppendPack(sc.out[:0])
			if err != nil {
				return nil
			}
			sc.out = out
			return out
		}
	}
	oc.span.Mark(obs.StageCookie)
	srcKey := s.resolverKey(src.Addr())
	if len(q.Questions) == 1 && !cookieValid && s.unscored(sc) {
		// The wire tiers are done with sc.vq: it takes the folded name here.
		sc.vq = q.Questions[0].Name.AppendWire(sc.vq[:0])
		oc.fq = filters.Query{Resolver: srcKey, Qname: sc.vq, Type: q.Questions[0].Type}
		if z, _, found := s.Engine.Store.FindWire(sc.vq); found {
			oc.fq.Zone = z.Origin()
		}
		if reply, ok := s.admit(wire, level, sc); !ok {
			return reply
		}
	}
	resp := &sc.resp
	from, crashed := s.Engine.AnswerInto(resp, q, nameserver.ResolverKey(srcKey))
	oc.span.Mark(obs.StageLookup)
	if crashed {
		// Surface the crash as a real panic so the recover boundary
		// journals, quarantines, and minimizes it — the path a genuine
		// parsing bug would take.
		panic(errQueryOfDeath)
	}
	if s.Cfg.Cookies && clientCookie != nil {
		if ro := resp.OPT(); ro != nil {
			ro.SetCookie(dnswire.Cookie{
				Client: clientCookie.Client,
				Server: dnswire.ComputeServerCookie(clientCookie.Client, src.Addr(), s.Cfg.CookieSecret),
			})
		}
	}
	oc.verdict, oc.rcode, oc.from = flight.VerdictServed, resp.RCode, from
	if from != nil {
		oc.zone = from.Origin()
	}
	if resp.RCode == dnswire.RCodeFormErr {
		s.Metrics.FormErr.Add(1)
	}
	limit := dnswire.MaxUDPPayload
	if opt := q.OPT(); opt != nil {
		limit = int(opt.UDPSize())
	}
	if tcp {
		limit = 65535
	}
	fitted, wireOut, err := resp.AppendTruncateTo(limit, sc.out[:0])
	oc.span.Mark(obs.StageWrite)
	if err != nil {
		s.Metrics.WriteErrors.Add(1)
		return nil
	}
	sc.out = wireOut
	if fitted.Truncated {
		s.Metrics.Truncated.Add(1)
	}
	// Replayable from the hot cache: untruncated and not an error about the
	// query's own form. Cookie echo cannot have happened here —
	// cookie-bearing queries never ask for a fill.
	oc.cacheable = !fitted.Truncated && resp.RCode != dnswire.RCodeFormErr && len(q.Questions) == 1
	return wireOut
}

// formErrFor builds a FORMERR reply for an undecodable packet, directly as
// wire bytes into out. It answers only packets carrying a complete header
// whose QR bit is clear — anything shorter gives no trustworthy flags to
// echo, and answering would turn malformed garbage into reflection ammo.
// The reply echoes the ID, opcode, and RD bit; all counts are zero.
func formErrFor(wire, out []byte) []byte {
	if len(wire) < 12 {
		return nil
	}
	if wire[2]&0x80 != 0 {
		return nil // QR set: never respond to a response
	}
	out = append(out,
		wire[0], wire[1], // ID
		0x80|wire[2]&0x79,          // QR=1, opcode and RD echoed, AA/TC clear
		byte(dnswire.RCodeFormErr), // RA/Z clear, RCODE=FORMERR
		0, 0, 0, 0, 0, 0, 0, 0)     // zero section counts
	return out
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			return
		}
		select {
		case s.tcpSem <- struct{}{}:
		default:
			// At the connection cap: shed the newcomer rather than let a
			// slowloris herd pin every handler goroutine (§5.2).
			s.Metrics.TCPRejected.Add(1)
			conn.Close()
			continue
		}
		s.trackConn(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.trackConn(conn, false)
				<-s.tcpSem
			}()
			s.serveTCPConn(conn)
		}()
	}
}

// serveTCPConn serves one connection's frames through handlePacket, up to
// the per-connection query budget. The connection rides in the scratch, so
// a zone transfer can write its own stream of frames to it.
func (s *Server) serveTCPConn(conn net.Conn) {
	var src netip.AddrPort
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		src = ta.AddrPort()
	} else if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		src = ap
	}
	sc := scratchPool.Get().(*scratch)
	sc.frames = conn
	defer func() {
		sc.frames = nil
		scratchPool.Put(sc)
	}()
	for served := 0; served < s.maxTCPQueries; served++ {
		if s.suspendedOrDraining() {
			return // suspended or draining: the connection is shed whole
		}
		// The read deadline refreshes per message, so an idle or trickling
		// peer is bounded per frame, not per connection lifetime.
		conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		wire, err := readFrame(conn)
		if err != nil {
			return
		}
		s.Metrics.TCPQueries.Add(1)
		if resp := s.handlePacket(wire, src, true, sc); resp != nil {
			if err := writeFrame(conn, resp); err != nil {
				s.Metrics.WriteErrors.Add(1)
				return
			}
		}
	}
}

// readFrame reads one length-prefixed DNS message (RFC 1035 §4.2.2).
func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	if n == 0 {
		return nil, errors.New("netserve: zero-length frame")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeFrame sends msg behind its length prefix in one Write, so a message
// leaves in one segment rather than a two-octet one and the rest.
func writeFrame(w io.Writer, msg []byte) error {
	if len(msg) > 65535 {
		return fmt.Errorf("netserve: frame too large (%d)", len(msg))
	}
	frame := binary.BigEndian.AppendUint16(make([]byte, 0, 2+len(msg)), uint16(len(msg)))
	_, err := w.Write(append(frame, msg...))
	return err
}

// sendTCP dials addr and writes q as one frame; timeout bounds the whole
// exchange. The caller reads the answer and closes the connection.
func sendTCP(addr string, q *dnswire.Message, timeout time.Duration) (net.Conn, error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if err := writeFrame(conn, wire); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Exchange is a minimal client: sends one query over UDP (or TCP when tcp
// is true) and returns the decoded response.
func Exchange(addr string, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, error) {
	if tcp {
		conn, err := sendTCP(addr, q, timeout)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		resp, err := readFrame(conn)
		if err != nil {
			return nil, err
		}
		return dnswire.Unpack(resp)
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("udp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 64<<10)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return dnswire.Unpack(buf[:n])
}

// LoadZonesInto parses origin=path pairs into the store (the authdns CLI's
// -zone flag). Every zone is parsed before any is installed, and then all
// are installed in one Store.Update: a spec that fails installs nothing.
func LoadZonesInto(store *zone.Store, specs []string, open func(string) (io.ReadCloser, error)) error {
	zones := make([]*zone.Zone, 0, len(specs))
	for _, spec := range specs {
		origin, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("netserve: zone spec %q needs origin=path", spec)
		}
		name, err := dnswire.ParseName(origin)
		if err != nil {
			return err
		}
		f, err := open(path)
		if err != nil {
			return err
		}
		z, err := zone.ParseMaster(f, name)
		f.Close()
		if err != nil {
			return fmt.Errorf("netserve: zone %s: %w", origin, err)
		}
		zones = append(zones, z)
	}
	store.Update(func(tx *zone.Tx) {
		for _, z := range zones {
			tx.Put(z)
		}
	})
	return nil
}
