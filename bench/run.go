package main

// run.go defines the four workloads and runs one of them end to end:
// build the corpus, bring up the server child, warm it, measure a window,
// and turn the generator's samples plus the child's rusage and obs
// counters into the named metrics.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// floodPerTick x 1/tickPeriod = 30 000 qps of attack traffic. Fixed:
	// rates never derive from the host. On the 2-core reference box it is a
	// sixth of the datagrams the one-worker child handles, far short of a
	// rate the child could not drain (where the kernel's drop order would
	// decide the result). It is kept that low because the legitimate
	// throughput is what the fixed-cost attack leaves over, which amplifies
	// every wobble of the host: at 60 000 qps a 17% slower quarter of an
	// hour cost 25% of answered_qps.
	floodPerTick = 30
	// queriesPerStream is the pre-built stream length; drivers cycle it.
	// Repeats are harmless: the only cacheable names in the cold classes
	// recur far further apart than the hot cache can hold.
	queriesPerStream = 1 << 18
	// defaultWarmup runs the workload unmeasured so caches fill, rate-limit
	// buckets settle and the churn pipeline reaches steady state. Charged
	// to setup_s.
	defaultWarmup = 500 * time.Millisecond
	// tierTolerance is how far a tier share may sit from its intent.
	tierTolerance = 0.05
	// Background-schedule validity: a run is invalid when the p99 tick
	// lateness of the side traffic exceeds lateLimit, that is when the
	// generator could not keep the attack or the probes on schedule.
	lateLimit = 4 * tickPeriod
)

// tiers is the share of received datagrams answered by each serving tier.
type tiers struct{ hot, view, slow float64 }

type workloadDef struct {
	name string
	why  string
	loop string
	// intent is the tier split of the measured stream the workload exists
	// to produce.
	intent tiers
	// tierSlack widens tierTolerance for this workload.
	tierSlack float64
	// failCeiling bounds failed/attempted; above it the run is incorrect.
	failCeiling float64
	flood       bool
	churn       bool
	zones       int // corpus size
	build       func(c *corpus, seed int64, n int) *querySet
}

var workloads = []workloadDef{
	{
		name:   "hot_hits",
		why:    "closed loop, 256 names in 32 zones: every answer is a hot-cache replay, so socket I/O and dispatch carry it",
		loop:   fmt.Sprintf("closed, %d in flight, 1 socket", closedWindow),
		intent: tiers{hot: 1, view: 0, slow: 0},
		zones:  numZones,
		build:  hotHitsQueries,
	},
	{
		name:   "miss_mix",
		why:    "closed loop, names over all 20000 zones: NXDOMAIN, referral, wildcard, CNAME, ECS/ANY; the view and decode paths carry it",
		loop:   fmt.Sprintf("closed, %d in flight, 1 socket", closedWindow),
		intent: tiers{hot: 0.01, view: 0.89, slow: 0.10},
		zones:  numZones,
		build:  missMixQueries,
	},
	{
		name:        "flood_mix",
		why:         "closed loop, Zipf resolver traffic beside a fixed 30000 qps random-subdomain flood, all scored by the filter pipeline",
		loop:        fmt.Sprintf("closed, %d in flight, 1 socket; flood open loop at %d qps from a second socket", closedWindow, floodPerTick*1000),
		flood:       true,
		zones:       smallCorpusZones,
		failCeiling: 0.001,
		intent:      tiers{hot: 0.62, view: 0.38, slow: 0},
		build:       legitQueries,
	},
	{
		name:        "churn_serve",
		why:         "closed loop, Zipf resolver traffic read from an edge store while changelists propagate into it through ctlplane and a pull loop",
		loop:        fmt.Sprintf("closed, %d in flight, 1 socket; %d changelists/s x %d zones, probed 1/ms from a second socket", closedWindow, int(time.Second/churnPeriod), churnZones),
		churn:       true,
		zones:       smallCorpusZones,
		failCeiling: 0.001,
		intent:      tiers{hot: 0.54, view: 0.46, slow: 0},
		// Every store change flushes the hot cache, so the hit ratio
		// depends on how many queries fit between two changes, that is on
		// how fast the host lets the loop run.
		tierSlack: 0.10,
		build:     legitQueries,
	},
}

func (d *workloadDef) corpusZones(opts runOpts) int {
	if opts.zones > 0 {
		return opts.zones
	}
	return d.zones
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// childWorkers is UDPWorkers = GOMAXPROCS for the server child: every CPU
// but one, which is left to the load generator.
func childWorkers() int { return max(1, runtime.NumCPU()-1) }

func (d *workloadDef) childConfig(c *corpus) childConfig {
	cfg := childConfig{Workers: childWorkers()}
	if d.flood {
		fc := &filterConfig{
			Allow: []string{"127.0.0.1"},
			// Far above anything one closed loop reaches: the known
			// resolver is never the one over its limit.
			Learn: map[string]float64{"127.0.0.1": 1e6},
		}
		for i := 0; i < floodZones; i++ {
			fc.NXHot = append(fc.NXHot, c.zones[i].origin)
		}
		cfg.Filters = fc
	}
	if d.churn {
		cfg.Edge = true
	}
	return cfg
}

type runOpts struct {
	seed   int64
	window time.Duration
	trace  bool
	// Sizes. defaultOpts sets the measured ones; only the package's own
	// test shrinks them, to keep tier-1 test time down.
	zones     int           // corpus size override (0 = the workload's own)
	streamN   int           // queries per pre-built stream
	warmup    time.Duration // unmeasured lead-in, charged to setup_s
	replayN   int           // packets in the traced replay sample
	ctlRounds int           // changelists in the control-plane replay
	flood     int           // attack datagrams per tick
}

func defaultOpts(seed int64, window time.Duration, trace bool) runOpts {
	return runOpts{
		seed: seed, window: window, trace: trace,
		streamN: queriesPerStream, warmup: defaultWarmup,
		replayN: traceSample, ctlRounds: ctlRounds, flood: floodPerTick,
	}
}

type runResult struct {
	def       *workloadDef
	opts      runOpts
	corpusSHA string
	metrics   map[string]metric // end-to-end, or per-layer when tracing
	order     []string          // print order of metrics
	attempted uint64
	failed    uint64
	wrong     uint64 // oracle mismatches, the part of failed that is not a timeout
	correct   bool
	valid     bool
	notes     []string
	samples   map[string]int
}

func (r *runResult) set(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func selfCPU() time.Duration { return time.Duration(processCPU()) * time.Microsecond }

// measured is everything one measured window produced.
type measured struct {
	c          *corpus
	qs         *querySet
	gen        genResult
	sent       float64 // measured-stream datagrams, warm-up included
	before     childStats
	after      childStats
	ready      childReady
	setupS     float64
	genCPU     time.Duration
	winFrom    int64
	winTo      int64
	bg         *background // halted; nil when the workload has no side traffic
	visible    []int64
	missed     int
	posted     int
	postFailed int
	postErr    error
}

// measure sets the system up (corpus, server child, warm-up: all charged
// to setup_s) and measures one window.
func measure(def *workloadDef, opts runOpts) (*measured, error) {
	m := &measured{}
	t0 := time.Now()
	m.c = buildCorpus(opts.seed, def.corpusZones(opts))
	m.qs = def.build(m.c, opts.seed, opts.streamN)
	var flood *querySet
	if def.flood {
		flood = floodQueries(m.c, opts.seed, opts.streamN/2)
	}
	child, err := startChild(def.childConfig(m.c), m.c)
	if err != nil {
		return nil, err
	}
	defer child.stop()
	m.ready = child.ready

	// Counters are read before the warm-up and after the window, never in
	// between: a scrape costs the child milliseconds that would land in
	// the window's first latencies. The tier shares and ratios derived
	// from them therefore cover warm-up plus window, which run the same
	// traffic; CPU comes from the child's own sampler instead.
	if m.before, err = child.stats(); err != nil {
		return nil, err
	}
	var cpu0 time.Duration
	between := func(i int) error {
		switch i {
		case 0: // warm-up drained: set-up ends, the window starts
			m.setupS = time.Since(t0).Seconds()
			cpu0 = selfCPU()
			m.winFrom = nowNs()
		case 1:
			m.winTo = nowNs()
			m.genCPU = selfCPU() - cpu0
		}
		return nil
	}
	var (
		probes *probeSet
		post   *poster
	)
	if def.churn {
		probes = new(probeSet)
		post = newPoster(child.ready.Ctl, m.c, opts.seed, probes)
		go post.run()
	}
	var bg *background
	if flood != nil || probes != nil {
		perTick := 0
		if flood != nil {
			perTick = opts.flood
		}
		if bg, err = startBackground(child.ready.UDP, flood, perTick, "127.0.0.2", probes); err != nil {
			return nil, err
		}
	}
	res, err := closedLoop(child.ready.UDP, m.c, m.qs, bg, []time.Duration{opts.warmup, opts.window}, between)
	if bg != nil {
		bg.halt()
		m.bg = bg
	}
	if post != nil {
		m.posted, m.postFailed, m.postErr = post.halt()
		m.visible, m.missed = probes.window(m.winFrom, m.winTo)
	}
	if err != nil {
		return nil, err
	}
	m.gen = res[1]
	m.sent = float64(res[0].sendPkts + res[1].sendPkts)
	if m.after, err = child.stats(); err != nil {
		return nil, err
	}
	return m, nil
}

// windowCPU returns the child's CPU microseconds per received datagram
// over the sampler ticks that fall inside the window.
func (m *measured) windowCPU() (usPerPkt float64, ticks int) {
	var first, last *cpuSample
	for i := range m.after.Samples {
		s := &m.after.Samples[i]
		if s.WallNs < m.winFrom || s.WallNs > m.winTo {
			continue
		}
		if first == nil {
			first = s
		}
		last = s
		ticks++
	}
	if ticks < 2 {
		return 0, ticks
	}
	return ratio(float64(last.CPUUs-first.CPUUs), float64(last.Received-first.Received)), ticks
}

// delta returns the growth of one obs series between the two scrapes.
func (m *measured) delta(key string) float64 { return m.after.Obs[key] - m.before.Obs[key] }

// deltaFamily sums delta over every labelled series of a family.
func (m *measured) deltaFamily(name string) float64 {
	sum := 0.0
	for key := range m.after.Obs {
		if strings.HasPrefix(key, name+"{") {
			sum += m.delta(key)
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tiers splits the datagrams the child received between its serving tiers,
// twice: over everything it received, and over the measured stream alone.
// Side traffic (random-subdomain flood, probes) is all view-tier by
// construction, so taking it out of the view count leaves the measured
// stream's own split, which unlike the first does not move with how fast
// the host lets the closed loop run beside a fixed-rate flood.
func (m *measured) tiers() (all, stream tiers, total float64) {
	total = m.delta(`akamaidns_server_queries_total{transport="udp"}`)
	hot := m.delta("akamaidns_hotcache_hits_total")
	view := m.delta("akamaidns_server_view_served_total")
	slow := m.delta("akamaidns_query_duration_seconds_count") - hot - view
	side := total - m.sent
	all = tiers{hot: ratio(hot, total), view: ratio(view, total), slow: ratio(slow, total)}
	stream = tiers{hot: ratio(hot, m.sent), view: ratio(view-side, m.sent), slow: ratio(slow, m.sent)}
	return all, stream, total
}

// runWorkload measures one workload and derives its metrics.
func runWorkload(def *workloadDef, opts runOpts) (*runResult, error) {
	m, err := measure(def, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	g := &m.gen
	r := &runResult{
		def: def, opts: opts, correct: true, valid: true,
		metrics:   map[string]metric{},
		samples:   map[string]int{"latency": len(g.lat)},
		attempted: g.attempted,
		failed:    g.failed(),
		wrong:     g.wrong,
		corpusSHA: m.c.sum(m.qs),
	}

	// Correctness gates.
	if g.wrong > 0 {
		r.fail("%d wrong answers, first: %s", g.wrong, g.firstBad)
	}
	if g.attempted == 0 || g.correct == 0 {
		r.fail("no operations completed")
	}
	if fr := ratio(float64(r.failed), float64(g.attempted)); fr > def.failCeiling {
		r.fail("failed/attempted %.5f above ceiling %.5f (%d timeouts)", fr, def.failCeiling, g.timeouts)
	}
	got, stream, total := m.tiers()
	for _, t := range []struct {
		name      string
		got, want float64
	}{{"hot", stream.hot, def.intent.hot}, {"view", stream.view, def.intent.view}, {"slow", stream.slow, def.intent.slow}} {
		if tol := tierTolerance + def.tierSlack; math.Abs(t.got-t.want) > tol {
			r.fail("%s tier share of the measured stream %.3f, intended %.2f +-%.2f", t.name, t.got, t.want, tol)
		}
	}
	if def.churn {
		if m.postFailed > 0 {
			r.fail("%d of %d changelists failed, first: %v", m.postFailed, m.posted, m.postErr)
		}
		if m.missed > 0 {
			r.fail("%d changelists never became visible within %s", m.missed, probePatience)
		}
		if len(m.visible) == 0 {
			r.fail("no changelist visibility samples")
		}
		r.samples["update_visible"] = len(m.visible)
	}

	// Was the generator able to keep the side traffic on schedule?
	lateP99, bgNsPerPkt, bgPkts := 0.0, 0.0, 0.0
	if m.bg != nil {
		sortU32(m.bg.late)
		lateP99 = quantile(m.bg.late, 0.99)
		bgNsPerPkt = ratio(float64(m.bg.sendNs), float64(m.bg.sendPkts))
		// Side datagrams inside the window, at the schedule's fixed rate.
		bgPkts = ratio(float64(m.bg.sendPkts), float64(len(m.bg.late))) * g.elapsed.Seconds() / tickPeriod.Seconds()
		if lateP99 > float64(lateLimit) {
			r.valid = false
			r.notes = append(r.notes, fmt.Sprintf("generator late: p99 tick lateness %.0fus > %s", lateP99/1e3, lateLimit))
		}
	}
	genShare := ratio(m.genCPU.Seconds(), g.elapsed.Seconds())

	sortU32(g.lat)
	cpuPerPkt, cpuTicks := m.windowCPU()
	if cpuTicks < 2 {
		r.fail("server child produced %d CPU samples inside the window", cpuTicks)
	}
	r.samples["cpu_ticks"] = cpuTicks
	if g.unmatched > 0 {
		r.samples["late_or_duplicate_responses"] = int(g.unmatched)
	}
	elapsed := g.elapsed.Seconds()
	sort.Slice(m.visible, func(i, j int) bool { return m.visible[i] < m.visible[j] })
	if !opts.trace {
		r.set("answered_qps", ratio(float64(g.correct), elapsed), "1/s")
		r.set("latency_p50_us", quantile(g.lat, 0.50)/1e3, "us")
		// Datagrams sent per correct answer turns CPU per datagram into
		// CPU per answer; under a flood the attack traffic is in there.
		r.set("server_cpu_us_per_answer", cpuPerPkt*ratio(float64(g.sendPkts)+bgPkts, float64(g.correct)), "us")
		r.set("server_rss_mb", float64(m.after.MaxRSSKB)/1024, "MB")
		r.set("setup_s", m.setupS, "s")
		return r, nil
	}

	// Per-layer: counters scraped from the child's obs registry over the
	// window, then the in-process traced replay.
	scored := m.delta("akamaidns_queue_enqueued_total") + m.delta("akamaidns_queue_discarded_total") +
		m.delta("akamaidns_queue_taildropped_total")
	pulls := m.delta(`propagate_pulls_total{kind="delta"}`) + m.delta(`propagate_pulls_total{kind="full"}`)
	r.set("netserve.hot_share", got.hot, "ratio")
	r.set("netserve.view_share", got.view, "ratio")
	r.set("netserve.slow_share", got.slow, "ratio")
	r.set("netserve.shed_total", m.deltaFamily("akamaidns_server_shed_total"), "count")
	r.set("netserve.send_shortfall", m.delta("akamaidns_server_send_shortfall_total"), "count")
	r.set("netserve.received", total, "count")
	r.set("nameserver.hotcache_hit_ratio", ratio(m.delta("akamaidns_hotcache_hits_total"),
		m.delta("akamaidns_hotcache_hits_total")+m.delta("akamaidns_hotcache_misses_total")), "ratio")
	r.set("udpbatch.mean_batch", ratio(m.delta("akamaidns_server_udp_batch_size_sum"),
		m.delta("akamaidns_server_udp_batch_size_count")), "count")
	r.set("filters.penalized_ratio", ratio(m.deltaFamily("akamaidns_filter_hits_total"), scored), "ratio")
	r.set("queue.discard_ratio", ratio(m.delta("akamaidns_queue_discarded_total"), scored), "ratio")
	r.set("queue.taildrop_ratio", ratio(m.delta("akamaidns_queue_taildropped_total"), scored), "ratio")
	r.set("zone.shard_clones_per_change", ratio(m.delta("akamaidns_zone_router_shard_rebuilds_total"), pulls), "count")
	r.set("ctlplane.conflicts", m.delta("akamaidns_ctl_conflicts_total"), "count")
	r.set("ctlplane.revalidations", m.delta("akamaidns_ctl_revalidations_total"), "count")
	r.set("propagate.ixfr_ratio", ratio(m.delta(`propagate_pulls_total{kind="delta"}`), pulls), "ratio")
	r.set("propagate.retries", m.delta("propagate_retries_total"), "count")
	r.set("churn.update_visible_p50_ms", quantile(m.visible, 0.50)/1e6, "ms")
	r.set("churn.update_visible_p80_ms", quantile(m.visible, 0.80)/1e6, "ms")
	r.set("gen.latency_p99_us", quantile(g.lat, 0.99)/1e3, "us")
	r.set("gen.late_p99_us", lateP99/1e3, "us")
	r.set("gen.send_ns_per_pkt", ratio(float64(g.sendNs), float64(g.sendPkts)), "ns")
	r.set("gen.side_send_ns_per_pkt", bgNsPerPkt, "ns")
	r.set("gen.cpu_share", genShare, "ratio")
	r.set("child.parse_s", m.ready.ParseS, "s")
	r.set("child.compile_s", m.ready.CompileS, "s")

	if err := tracedReplay(r, def, m.c, m.qs, cpuPerPkt*1e3, got, ratio(m.sent, total)); err != nil {
		return nil, fmt.Errorf("%s traced replay: %w", def.name, err)
	}
	return r, nil
}
