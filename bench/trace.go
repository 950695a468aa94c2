package main

// trace.go is the per-layer half of the benchmark: an in-process replay of
// a fixed seeded sample of the workload's packets through each layer's
// public functions, in the order netserve's serving tiers call them, with
// a span recorded around every batch of calls. The server itself is not
// instrumented: per the tracing rules for a benchmark-defining change, the
// spans sit in the benchmark's own files, around the calls into each layer.
//
// Calls are timed in batches of traceBatch between clock reads, stage by
// stage (all parses, then all cache keys, ...), so the ~30ns clock read
// does not swamp layers that take 50-300ns per call. Every call is timed;
// spans are sampled down to maxSpans when written out.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/propagate"
	"akamaidns/internal/queue"
	"akamaidns/internal/simtime"
	"akamaidns/internal/udpbatch"
	"akamaidns/internal/zone"
)

const (
	traceSample = 200000
	traceBatch  = 256
	maxSpans    = 200000
	// ctlRounds is how many changelists the control-plane replay applies.
	ctlRounds = 50
)

// spanFile is -trace-out; empty selects defaultSpanFile.
var spanFile string

// defaultSpanFile keeps trace output inside the working directory (the
// benchmark contract forbids writing outside the checkout, which rules out
// the OS temp dir).
func defaultSpanFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

// span is one timed batch of calls into a layer. Spans of one request
// batch share Req; Parent is the index of the enclosing span, -1 at the
// root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Req     int32  `json:"req"`
	Calls   int32  `json:"calls"`
}

type layerAgg struct {
	ns     int64
	calls  int64
	allocs uint64
}

// tracer records spans in memory. With on=false every method is a plain
// call-through, which is the untraced baseline for trace_overhead_ratio.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	agg   map[string]*layerAgg
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), agg: map[string]*layerAgg{}}
}

func (t *tracer) layer(name string) *layerAgg {
	a := t.agg[name]
	if a == nil {
		a = &layerAgg{}
		t.agg[name] = a
	}
	return a
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, calls int) {
	if !t.on {
		return
	}
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	s.Calls = int32(calls)
	a := t.layer(s.Name)
	a.ns += s.EndNs - s.StartNs
	a.calls += int64(calls)
}

// stage times fn, which makes calls calls into the named layer.
func (t *tracer) stage(name string, parent, req int32, calls int, fn func()) {
	if calls == 0 {
		return
	}
	id := t.begin(name, parent, req)
	fn()
	t.end(id, calls)
}

// stageAllocs is stage plus a heap-allocation count (runtime.MemStats
// delta, read outside the timed region).
func (t *tracer) stageAllocs(name string, parent, req int32, calls int, fn func()) {
	if !t.on || calls == 0 {
		t.stage(name, parent, req, calls, fn)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.stage(name, parent, req, calls, fn)
	runtime.ReadMemStats(&after)
	t.layer(name).allocs += after.Mallocs - before.Mallocs
}

// perCall is the mean time of one call into the layer, in ns.
func (t *tracer) perCall(name string) float64 {
	a := t.agg[name]
	if a == nil {
		return 0
	}
	return ratio(float64(a.ns), float64(a.calls))
}

func (t *tracer) allocsPerCall(name string) float64 {
	a := t.agg[name]
	if a == nil {
		return 0
	}
	return ratio(float64(a.allocs), float64(a.calls))
}

// write dumps the spans as JSON lines, keeping every k-th request batch
// when there are more than maxSpans.
func (t *tracer) write(path string) (written int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	keep := int32(len(t.spans)/maxSpans + 1)
	for i := range t.spans {
		if t.spans[i].Req%keep != 0 {
			continue
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return written, err
		}
		written++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}

// packet is one replayed datagram: wire bytes plus the resolver address it
// would arrive from.
type packet struct {
	wire     []byte
	resolver string
}

// samplePackets draws the fixed replay sample from the workload's streams:
// legitShare of it from the measured stream, the proportion the live run
// reached, and the rest from the flood, evenly interleaved.
func samplePackets(def *workloadDef, c *corpus, qs *querySet, opts runOpts, legitShare float64) []packet {
	n := opts.replayN
	out := make([]packet, 0, n)
	var flood *querySet
	if def.flood {
		flood = floodQueries(c, opts.seed, opts.streamN/2)
	}
	qi, fi, owed := 0, 0, 0.0
	for len(out) < n {
		if owed += legitShare; flood == nil || owed >= 1 {
			owed--
			out = append(out, packet{qs.wire(qi % qs.len()), "127.0.0.1"})
			qi++
			continue
		}
		out = append(out, packet{flood.wire(fi % flood.len()), "127.0.0.2"})
		fi++
	}
	return out
}

// replayer holds the layers under replay plus per-batch scratch.
type replayer struct {
	tr    *tracer
	store *zone.Store
	hot   *nameserver.HotCache
	eng   *nameserver.Engine
	pipe  *filters.Pipeline
	adm   *queue.Q
	// now is the virtual arrival clock the filters see; step is the
	// inter-arrival time at the workload's packet rate.
	now  simtime.Time
	step time.Duration

	// Per-packet scratch the stages of one batch hand to one another.
	views  [traceBatch]dnswire.QueryView
	keys   [traceBatch][]byte
	folds  [traceBatch][]byte
	zones  [traceBatch]*zone.Zone
	ents   [traceBatch]*nameserver.HotEntry
	scores [traceBatch]float64
	names  [traceBatch]dnswire.Name
	rcodes [traceBatch]dnswire.RCode
	wires  [traceBatch][]byte
	msgs   [traceBatch]dnswire.Message
	resps  [traceBatch]*dnswire.Message
	out    []byte
	// Index lists of the packets each stage passes on, reused per batch so
	// the timed stages do not grow slices.
	elig, hits, miss, slow, folded, routed, kept, cacheable, decoded []int

	hotN, viewN, slowN int
}

// sizeClass mirrors netserve's payload bucketing for the hot-cache key:
// queries without EDNS and queries advertising 1232 are the two classes
// the generator produces.
func sizeClass(v dnswire.QueryView) byte {
	if !v.HasOPT {
		return 2
	}
	return 4
}

// fastEligible is the wire tiers' shared admission test: a plain INET
// query whose answer does not depend on the client.
func fastEligible(v dnswire.QueryView) bool {
	if v.Response() || v.OpCode() != dnswire.OpQuery || v.QClass != dnswire.ClassINET {
		return false
	}
	switch v.QType {
	case dnswire.TypeAXFR, dnswire.TypeIXFR, dnswire.TypeANY:
		return false
	}
	return !v.HasECS && !v.HasCookie
}

// batch replays one batch of packets through the tiers.
func (r *replayer) batch(req int32, pkts []packet) {
	tr := r.tr
	root := tr.begin("batch", -1, req)
	n := len(pkts)
	elig, hits, miss, slow := r.elig[:0], r.hits[:0], r.miss[:0], r.slow[:0]
	folded, routed, kept := r.folded[:0], r.routed[:0], r.kept[:0]
	cacheable, decoded := r.cacheable[:0], r.decoded[:0]

	tr.stage("dnswire.parse_view", root, req, n, func() {
		for i := range pkts {
			v, ok := dnswire.ParseQueryView(pkts[i].wire)
			r.views[i] = v
			if ok && fastEligible(v) {
				elig = append(elig, i)
			} else {
				slow = append(slow, i)
			}
		}
	})
	tr.stage("dnswire.cache_key", root, req, len(elig), func() {
		for _, i := range elig {
			r.keys[i] = r.views[i].AppendCacheKey(r.keys[i][:0], pkts[i].wire, sizeClass(r.views[i]))
		}
	})
	gen := r.store.Gen()
	tr.stage("nameserver.hotcache_lookup", root, req, len(elig), func() {
		for _, i := range elig {
			if e, hit := r.hot.Lookup(r.keys[i], gen); hit {
				r.ents[i] = e
				hits = append(hits, i)
			} else {
				miss = append(miss, i)
			}
		}
	})
	if r.pipe != nil {
		// Hot-cache hits score from the entry's parsed name and zone.
		tr.stage("filters.score+queue.admit", root, req, len(hits), func() {
			for _, i := range hits {
				r.now = r.now.Add(r.step)
				fq := filters.Query{Resolver: pkts[i].resolver, Name: r.ents[i].Name, Type: r.views[i].QType,
					Zone: r.ents[i].Zone, IPTTL: 64, Now: r.now}
				score, _ := r.pipe.Score(&fq)
				r.adm.Admit(score)
			}
		})
	}
	r.hotN += len(hits)

	tr.stage("dnswire.fold_qname", root, req, len(miss), func() {
		for _, i := range miss {
			f, ok := r.views[i].AppendQnameFolded(r.folds[i][:0], pkts[i].wire)
			r.folds[i] = f
			if ok {
				folded = append(folded, i)
			} else {
				slow = append(slow, i)
			}
		}
	})
	tr.stage("zone.findwire", root, req, len(folded), func() {
		for _, i := range folded {
			if z, _, found := r.store.FindWire(r.folds[i]); found {
				r.zones[i] = z
				routed = append(routed, i)
			}
		}
	})
	if r.pipe != nil {
		// The view tier pays one Name allocation to build the filter query;
		// netserve charges it to scoring, so does the replay.
		tr.stage("filters.score", root, req, len(routed), func() {
			for _, i := range routed {
				r.now = r.now.Add(r.step)
				name, ok := dnswire.NameFromFoldedWire(r.folds[i])
				fq := filters.Query{Resolver: pkts[i].resolver, Name: name, Type: r.views[i].QType,
					Zone: r.zones[i].Origin(), IPTTL: 64, Now: r.now}
				score, _ := r.pipe.Score(&fq)
				if ok {
					r.scores[i] = score
					kept = append(kept, i)
				}
			}
		})
		routed = routed[:0]
		tr.stage("queue.admit", root, req, len(kept), func() {
			for _, i := range kept {
				if r.adm.Admit(r.scores[i]) == queue.Accepted {
					routed = append(routed, i)
				}
			}
		})
	}
	tr.stage("zone.view_append", root, req, len(routed), func() {
		for _, i := range routed {
			w, v := pkts[i].wire, r.views[i]
			out := append(r.out[:0], w[0], w[1], 0x80|w[2]&0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0)
			out = append(out, w[12:12+v.QnameLen+4]...)
			out, wa, ok := r.zones[i].View().AppendAnswer(out, r.folds[i], 12, v.QType)
			r.out = out[:0]
			if !ok {
				slow = append(slow, i)
				continue
			}
			r.viewN++
			if wa.Cacheable {
				r.names[i] = wa.Name
				r.rcodes[i] = rcodeOf(wa.Result)
				// The response bytes must outlive r.out: copy now, insert
				// in the next stage.
				r.wires[i] = append([]byte(nil), out...)
				cacheable = append(cacheable, i)
			}
		}
	})
	tr.stage("nameserver.hotcache_insert", root, req, len(cacheable), func() {
		for _, i := range cacheable {
			r.hot.Insert(r.keys[i], &nameserver.HotEntry{
				Wire: r.wires[i], QnameLen: r.views[i].QnameLen, Name: r.names[i],
				Zone: r.zones[i].Origin(), RCode: r.rcodes[i],
			}, gen)
		}
	})

	// Decode path: everything the wire tiers declined.
	tr.stageAllocs("dnswire.unpack", root, req, len(slow), func() {
		for _, i := range slow {
			if dnswire.UnpackInto(&r.msgs[i], pkts[i].wire) == nil {
				decoded = append(decoded, i)
			}
		}
	})
	tr.stageAllocs("nameserver.engine_answer", root, req, len(decoded), func() {
		for _, i := range decoded {
			r.resps[i], _, _ = r.eng.Answer(&r.msgs[i], nameserver.ResolverKey(pkts[i].resolver))
		}
	})
	tr.stageAllocs("dnswire.pack", root, req, len(decoded), func() {
		for _, i := range decoded {
			limit := dnswire.MaxUDPPayload
			if opt := r.msgs[i].OPT(); opt != nil {
				limit = int(opt.UDPSize())
			}
			if _, out, err := r.resps[i].AppendTruncateTo(limit, r.out[:0]); err == nil {
				r.out = out[:0]
				r.slowN++
			}
		}
	})
	tr.end(root, n)
	r.elig, r.hits, r.miss, r.slow = elig, hits, miss, slow
	r.folded, r.routed, r.kept = folded, routed, kept
	r.cacheable, r.decoded = cacheable, decoded
}

func rcodeOf(res zone.Result) dnswire.RCode {
	if res == zone.NXDomain {
		return dnswire.RCodeNXDomain
	}
	return dnswire.RCodeNoError
}

// replayPackets runs the whole sample through a fresh replayer and returns
// it with the wall time taken.
func replayPackets(def *workloadDef, store *zone.Store, c *corpus, pkts []packet, step time.Duration, traced bool) (*replayer, time.Duration, error) {
	r := &replayer{
		tr:    newTracer(traced),
		store: store,
		hot:   nameserver.NewHotCache(0),
		eng:   nameserver.NewEngine(store),
	}
	if def.flood {
		pipe, err := buildPipeline(store, def.childConfig(c).Filters)
		if err != nil {
			return nil, 0, err
		}
		r.pipe = pipe
		r.adm = queue.MustNew(queue.DefaultConfig())
		r.step = step
	}
	start := time.Now()
	for off, req := 0, int32(0); off < len(pkts); off, req = off+traceBatch, req+1 {
		r.batch(req, pkts[off:min(off+traceBatch, len(pkts))])
	}
	return r, time.Since(start), nil
}

// socketPair times udpbatch's read and flush sides over a loopback socket
// pair: rounds batches of k small datagrams each way.
func socketPair(tr *tracer, k, rounds int, payload []byte) error {
	ub, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer ub.Close()
	_ = ub.SetReadBuffer(1 << 20)
	ua, err := dialUDP("", ub.LocalAddr().String())
	if err != nil {
		return err
	}
	defer ua.Close()
	a, err := udpbatch.New(ua, k)
	if err != nil {
		return err
	}
	b, err := udpbatch.New(ub, k)
	if err != nil {
		return err
	}
	for round := int32(0); round < int32(rounds); round++ {
		root := tr.begin("socket_pair", -1, round)
		for j := 0; j < k; j++ {
			a.StageConnected(j, payload)
		}
		id := tr.begin("udpbatch.flush", root, round)
		_, _, ferr := a.Flush(k)
		tr.end(id, k)
		if ferr != nil {
			return ferr
		}
		for got := 0; got < k; {
			_ = ub.SetReadDeadline(time.Now().Add(time.Second))
			id := tr.begin("udpbatch.read", root, round)
			n, rerr := b.ReadBatch()
			tr.end(id, n)
			if rerr != nil {
				return fmt.Errorf("socket pair read: %w", rerr)
			}
			got += n
		}
		tr.end(root, k)
	}
	return nil
}

// controlPlaneReplay applies ctlRounds changelists through a controller,
// timing parse, diff, plan, apply, the edge store's batch update, and a
// full Poke-to-OnSync pull cycle over the 2ms Direct transport.
func controlPlaneReplay(tr *tracer, c *corpus, ctlStore *zone.Store, seed int64, rounds int) error {
	edge, err := transferStore(ctlStore)
	if err != nil {
		return err
	}
	hist := zone.NewHistory(64)
	src := propagate.NewSource(ctlStore, hist)
	clock := propagate.NewWallClock()
	synced := make(chan struct{}, 1) // one pending signal is all a waiter needs
	pull := propagate.New(propagate.Config{
		ID: "replay-edge", Clock: clock, Store: edge,
		Transport: propagate.NewDirect(clock, src, 2*time.Millisecond),
		OnSync: func(simtime.Time) {
			select {
			case synced <- struct{}{}:
			default:
			}
		},
	})
	defer pull.Stop()
	waitSync := func() error {
		select {
		case <-synced:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("pull cycle did not complete")
		}
	}
	pull.Start()
	pull.Poke()
	if err := waitSync(); err != nil {
		return err
	}
	ctl := ctlplane.New(ctlStore, ctlplane.Config{History: hist})
	rng := workloadRNG(seed, "churn")
	serial := map[int]uint32{}
	for round := int32(0); round < int32(rounds); round++ {
		root := tr.begin("changelist", -1, round)
		var cl ctlplane.Changelist
		var olds []*zone.Zone
		var perr error
		picked := map[int]bool{}
		var texts []string
		var origins []dnswire.Name
		for len(texts) < churnZones {
			zi := rng.Intn(len(c.zones))
			if picked[zi] {
				continue
			}
			picked[zi] = true
			if serial[zi] == 0 {
				serial[zi] = 1
			}
			serial[zi]++
			origins = append(origins, dnswire.MustName(c.zones[zi].origin))
			texts = append(texts, c.zones[zi].text(serial[zi]))
		}
		tr.stage("zone.parse_master", root, round, len(texts), func() {
			for i, text := range texts {
				z, err := zone.ParseMaster(strings.NewReader(text), origins[i])
				if err != nil {
					perr = err
					return
				}
				cl.Zones = append(cl.Zones, ctlplane.ZoneChange{Origin: origins[i], Desired: z})
				olds = append(olds, ctlStore.Get(origins[i]))
			}
		})
		if perr != nil {
			return perr
		}
		tr.stage("zone.diff", root, round, len(olds), func() {
			for i, old := range olds {
				_ = zone.Diff(old, cl.Zones[i].Desired)
			}
		})
		var plan *ctlplane.Plan
		tr.stage("ctlplane.plan", root, round, 1, func() { plan = ctl.Plan(cl) })
		var aerr error
		tr.stage("ctlplane.apply", root, round, 1, func() { aerr = ctl.Apply(plan) })
		if aerr != nil {
			return fmt.Errorf("apply: %w", aerr)
		}
		var serr error
		tr.stage("propagate.cycle", root, round, 1, func() {
			pull.Poke()
			serr = waitSync()
		})
		if serr != nil {
			return serr
		}
		// The edge store's own batch write, in isolation: reinstall the
		// zones the cycle just pulled.
		fresh := make([]*zone.Zone, 0, len(origins))
		for _, o := range origins {
			fresh = append(fresh, edge.Get(o))
		}
		tr.stage("zone.store_update", root, round, 1, func() {
			edge.Update(func(tx *zone.Tx) {
				for _, z := range fresh {
					tx.Put(z)
				}
			})
		})
		tr.end(root, 1)
	}
	return nil
}

// tracedReplay fills r with the replayed per-layer metrics. cpuPerPktNs is
// the server child's CPU time per received datagram over the live window.
func tracedReplay(r *runResult, def *workloadDef, c *corpus, qs *querySet, cpuPerPktNs float64, live tiers, legitShare float64) error {
	// The child is gone; the replay may use the whole machine.
	runtime.GOMAXPROCS(runtime.NumCPU())
	zones := make([]zoneMsg, len(c.zones))
	for i := range c.zones {
		zones[i] = zoneMsg{Origin: c.zones[i].origin, Text: c.texts[i]}
	}
	store, err := loadStore(zones)
	if err != nil {
		return err
	}
	compileStart := time.Now()
	compileViews(store)
	compileUs := float64(time.Since(compileStart).Microseconds()) / float64(len(zones))

	pkts := samplePackets(def, c, qs, r.opts, legitShare)
	// The filters see packets arrive at the rate the flood implies.
	step := time.Duration(float64(tickPeriod) / float64(r.opts.flood) * (1 - legitShare))
	// Untraced pass first (it also warms the CPU caches the same way), then
	// the traced pass whose spans are kept; each starts from a cold hot
	// cache, as the server did.
	runtime.GC()
	_, plain, err := replayPackets(def, store, c, pkts, step, false)
	if err != nil {
		return err
	}
	runtime.GC()
	rp, traced, err := replayPackets(def, store, c, pkts, step, true)
	if err != nil {
		return err
	}
	tr := rp.tr
	payload := pkts[0].wire
	if err := socketPair(tr, 32, 2000, payload); err != nil {
		return err
	}
	if def.churn {
		if err := controlPlaneReplay(tr, c, store, r.opts.seed, r.opts.ctlRounds); err != nil {
			return err
		}
	}
	path := spanFile
	if path == "" {
		path = defaultSpanFile(def.name, r.opts.seed)
	}
	written, err := tr.write(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans (%d recorded) written to %s", written, len(tr.spans), path))
	r.samples["replayed_packets"] = len(pkts)

	total := float64(len(pkts))
	replayTiers := tiers{hot: float64(rp.hotN) / total, view: float64(rp.viewN) / total, slow: float64(rp.slowN) / total}
	// A replay that splits traffic differently from the live server is
	// timing the wrong mix. (Under churn the live hot cache is flushed by
	// every store change, which the static replay store never sees.)
	if !def.churn {
		for _, t := range []struct {
			name      string
			got, want float64
		}{{"hot", replayTiers.hot, live.hot}, {"view", replayTiers.view, live.view}, {"slow", replayTiers.slow, live.slow}} {
			if diff := t.got - t.want; diff > tierTolerance || diff < -tierTolerance {
				r.fail("replay %s share %.3f, live server %.3f", t.name, t.got, t.want)
			}
		}
	}

	ns := func(metricName, layer string) { r.set(metricName, tr.perCall(layer), "ns") }
	us := func(metricName, layer string) { r.set(metricName, tr.perCall(layer)/1e3, "us") }
	ns("dnswire.parse_view_ns", "dnswire.parse_view")
	ns("dnswire.cache_key_ns", "dnswire.cache_key")
	ns("dnswire.fold_qname_ns", "dnswire.fold_qname")
	ns("dnswire.unpack_ns", "dnswire.unpack")
	ns("dnswire.pack_ns", "dnswire.pack")
	r.set("dnswire.allocs_per_msg", tr.allocsPerCall("dnswire.unpack")+tr.allocsPerCall("dnswire.pack"), "count")
	ns("nameserver.hotcache_lookup_ns", "nameserver.hotcache_lookup")
	ns("nameserver.hotcache_insert_ns", "nameserver.hotcache_insert")
	ns("nameserver.engine_answer_ns", "nameserver.engine_answer")
	r.set("nameserver.engine_allocs_per_op", tr.allocsPerCall("nameserver.engine_answer"), "count")
	ns("zone.findwire_ns", "zone.findwire")
	ns("zone.view_append_ns", "zone.view_append")
	r.set("zone.view_compile_us", compileUs, "us")
	// Scoring on the hit tier is one fused stage; fold it into both.
	scoreCalls, scoreNs := 0.0, 0.0
	for _, l := range []string{"filters.score", "filters.score+queue.admit"} {
		if a := tr.agg[l]; a != nil {
			scoreCalls += float64(a.calls)
			scoreNs += float64(a.ns)
		}
	}
	r.set("filters.score_ns", ratio(scoreNs, scoreCalls), "ns")
	ns("queue.admit_ns", "queue.admit")
	ns("udpbatch.read_ns_per_pkt", "udpbatch.read")
	ns("udpbatch.flush_ns_per_pkt", "udpbatch.flush")
	us("zone.parse_master_us", "zone.parse_master")
	us("zone.diff_us", "zone.diff")
	us("zone.store_update_us", "zone.store_update")
	us("ctlplane.plan_us", "ctlplane.plan")
	us("ctlplane.apply_us", "ctlplane.apply")
	r.set("propagate.cycle_ms", tr.perCall("propagate.cycle")/1e6, "ms")

	// Self time: what the replayed layers cost per received datagram, and
	// what the server's CPU per datagram leaves unexplained (kernel UDP
	// and loopback, netserve's own dispatch, flight recorder, GC).
	layerNs := 0.0
	for name, a := range tr.agg {
		switch name {
		case "batch", "socket_pair", "changelist", "udpbatch.read", "udpbatch.flush",
			"zone.parse_master", "zone.diff", "zone.store_update", "ctlplane.plan", "ctlplane.apply", "propagate.cycle":
		default:
			layerNs += float64(a.ns)
		}
	}
	perPkt := layerNs/total + tr.perCall("udpbatch.read") + tr.perCall("udpbatch.flush")
	r.set("replay.layers_ns_per_pkt", perPkt, "ns")
	r.set("netserve.residual_ns", cpuPerPktNs-perPkt, "ns")
	r.set("trace_overhead_ratio", ratio(traced.Seconds(), plain.Seconds()), "ratio")
	return nil
}
