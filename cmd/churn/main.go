// Command churn is the serve-under-churn proof harness: it stands up a real
// UDP nameserver plus the control-plane HTTP API, then drives continuous
// zone changes through POST /ctl/changelist while query workers hammer the
// same server — the paper's operating regime, where zones are provisioned
// and modified at full query rate (§3.2, §5).
//
// Invariants checked (reported, and enforced with -assert):
//
//   - untouched-zone answers stay byte-identical before/during/after churn
//   - every applied batch costs at most one suffix-router rebuild
//   - propagation lag (POST accepted → new data visible over UDP) is
//     bounded; percentiles land in the JSON report
//   - the requested number of zone changes actually applied
//
// Example (the committed EXPERIMENTS.md run):
//
//	churn -zones 2048 -changes 1000000 -batch 256 -workers 4 -json report.json -assert
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/zone"
)

const controlOrigin = "control.churn.test"

func zoneOrigin(i int) string { return fmt.Sprintf("z%04d.churn.test", i) }

// zoneText renders one churn zone. The www address encodes the serial in
// its low bytes so a UDP probe can tell which version answered.
func zoneText(serial uint32) string {
	return fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 10.0.%d.%d
api  IN A 192.0.2.200
`, serial, byte(serial>>8), byte(serial))
}

const controlText = `
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
www  IN A 192.0.2.1
api  IN A 192.0.2.2
txt  IN TXT "untouched"
`

// changelistDoc mirrors the POST /ctl/changelist wire format.
type changelistDoc struct {
	Zones []zoneEntry `json:"zones"`
}

type zoneEntry struct {
	Origin string `json:"origin"`
	Zone   string `json:"zone"`
}

type report struct {
	Zones           int                 `json:"zones"`
	ChangesTarget   int                 `json:"changes_target"`
	ChangesApplied  int                 `json:"changes_applied"`
	Batches         int                 `json:"batches"`
	BatchSize       int                 `json:"batch_size"`
	ElapsedSec      float64             `json:"elapsed_sec"`
	Answered        uint64              `json:"answered"`
	AnsweredQPS     float64             `json:"answered_qps"`
	Timeouts        uint64              `json:"timeouts"`
	ControlChecks   uint64              `json:"control_checks"`
	ControlMismatch uint64              `json:"control_mismatches"`
	RouterRebuilds  uint64              `json:"router_rebuilds"`
	ShardRebuilds   uint64              `json:"router_shard_rebuilds"`
	Pipelined       bool                `json:"pipelined,omitempty"`
	Posters         int                 `json:"posters,omitempty"`
	LagP50Ms        float64             `json:"lag_p50_ms"`
	LagP90Ms        float64             `json:"lag_p90_ms"`
	LagP99Ms        float64             `json:"lag_p99_ms"`
	LagMaxMs        float64             `json:"lag_max_ms"`
	LagSamples      int                 `json:"lag_samples"`
	PullMachines    int                 `json:"pull_machines,omitempty"`
	PullLagSamples  int                 `json:"pull_lag_samples,omitempty"`
	PullLagP50Ms    float64             `json:"pull_lag_p50_ms,omitempty"`
	PullLagP90Ms    float64             `json:"pull_lag_p90_ms,omitempty"`
	PullLagP99Ms    float64             `json:"pull_lag_p99_ms,omitempty"`
	PullLagMaxMs    float64             `json:"pull_lag_max_ms,omitempty"`
	PullPerMachine  []pullMachineReport `json:"pull_per_machine,omitempty"`
	Violations      []string            `json:"violations"`
}

func main() {
	zones := flag.Int("zones", 2048, "zones under churn")
	changes := flag.Int("changes", 100000, "total zone changes to apply")
	batch := flag.Int("batch", 256, "zones per changelist POST")
	workers := flag.Int("workers", 4, "query workers")
	seed := flag.Int64("seed", 1, "rng seed for query interleave")
	duration := flag.Duration("duration", 0, "wall-clock cap (0 = run until -changes applied)")
	jsonPath := flag.String("json", "", "write the JSON report here ('' = stdout summary only)")
	assert := flag.Bool("assert", false, "exit non-zero when an invariant is violated")
	lagBound := flag.Duration("lag-bound", 250*time.Millisecond, "propagation-lag p99 assertion bound")
	pace := flag.Duration("pace", 0, "sleep between changelist POSTs (give query workers CPU on small machines)")
	pipelined := flag.Bool("pipeline", false, "submit changelists through the pipelined control plane (POST ?mode=pipeline)")
	posters := flag.Int("posters", 1, "concurrent changelist posters over disjoint zone ranges (pipeline overlap shows past 1)")
	pf := pullFlags{}
	flag.IntVar(&pf.n, "pull", 0, "pull-propagation edge machines, each with its own store, pull loop, and UDP server (0 = off)")
	flag.DurationVar(&pf.interval, "pull-interval", 200*time.Millisecond, "pull poll interval")
	flag.DurationVar(&pf.timeout, "pull-timeout", time.Second, "per-attempt pull transfer timeout")
	flag.DurationVar(&pf.deadline, "pull-lag-deadline", 15*time.Second, "give up sampling a batch's pull lag after this long")
	flag.Float64Var(&pf.drop, "pull-drop", 0, "pull link drop rate [0,1)")
	flag.Float64Var(&pf.corrupt, "pull-corrupt", 0, "pull link corruption rate [0,1)")
	flag.Float64Var(&pf.dup, "pull-dup", 0, "pull link duplication rate [0,1)")
	flag.DurationVar(&pf.delay, "pull-delay", 2*time.Millisecond, "pull link one-way delay")
	flag.DurationVar(&pf.jitter, "pull-delay-jitter", 0, "pull link delay jitter")
	flag.Parse()

	if *posters < 1 {
		*posters = 1
	}
	if *posters > *zones {
		*posters = *zones
	}
	if *batch > *zones / *posters {
		*batch = *zones / *posters
	}

	// Server: real UDP sockets on loopback, control plane on the debug
	// listener — the exact wiring authdns uses.
	store := zone.NewStore()
	eng := nameserver.NewEngine(store)
	cfg := netserve.DefaultConfig()
	cfg.UDPAddr = "127.0.0.1:0"
	cfg.TCPAddr = ""
	srv := netserve.New(cfg, eng, nil)

	// Optional pull fleet: edge machines with their own stores fed by the
	// propagation plane. The control plane records every commit into the
	// fleet's IXFR history and its publish hook pokes the pull loops, so
	// changes propagate at notify speed.
	var fleet *pullFleet
	ctlCfg := ctlplane.Config{Registry: srv.Reg}
	if pf.n > 0 {
		var err error
		if fleet, err = newPullFleet(store, pf, *seed); err != nil {
			fatal("pull fleet: %v", err)
		}
		defer fleet.close()
		ctlCfg.History = fleet.hist
		ctlCfg.Publish = func(dnswire.Name, uint32) { fleet.poke() }
	}
	ctl := ctlplane.New(store, ctlCfg)
	if *pipelined {
		// Attach the validate/commit pipeline so ?mode=pipeline POSTs
		// overlap changelist N+1's validation with N's commit. Depth scales
		// with the poster count so backpressure kicks in, not buffering.
		pl := ctlplane.NewPipeline(ctl, ctlplane.PipelineConfig{Depth: 2 * *posters})
		defer pl.Close()
	}
	if err := srv.Start(); err != nil {
		fatal("start server: %v", err)
	}
	defer srv.Close()
	ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, func(mux *http.ServeMux) {
		ctl.RegisterHTTP(mux)
	})
	if err != nil {
		fatal("start control listener: %v", err)
	}
	defer ms.Close()
	udpAddr := srv.UDPAddrActual()
	ctlBase := "http://" + ms.Addr() + "/ctl/changelist"
	ctlURL := ctlBase
	if *pipelined {
		ctlURL += "?mode=pipeline"
	}
	fmt.Printf("churn: udp %s, control %s\n", udpAddr, ctlURL)

	// Seed: the control zone plus every churn zone at serial 1, installed
	// through the control plane in chunked changelists — one POST does not
	// scale to -zones in the millions (the API caps zones per changelist
	// and body bytes), and each chunk is still a single router rebuild.
	const seedChunk = 4096
	seedDoc := changelistDoc{Zones: []zoneEntry{{Origin: controlOrigin, Zone: controlText}}}
	flushSeed := func() {
		if st := postChangelist(ctlBase, seedDoc); st != "applied" {
			fatal("seed changelist status %q", st)
		}
		seedDoc.Zones = seedDoc.Zones[:0]
	}
	for i := 0; i < *zones; i++ {
		seedDoc.Zones = append(seedDoc.Zones, zoneEntry{Origin: zoneOrigin(i), Zone: zoneText(1)})
		if len(seedDoc.Zones) == seedChunk {
			flushSeed()
		}
	}
	if len(seedDoc.Zones) > 0 {
		flushSeed()
	}
	rebuildsAfterSeed := store.Gen()
	shardsAfterSeed := store.ShardRebuilds()

	// Baseline: the control zone's answer bytes with a fixed query, the
	// byte-identity oracle for untouched zones.
	baselineQ := packQuery(0x4242, "www."+controlOrigin)
	baseline, err := queryOnce(udpAddr, baselineQ, time.Second)
	if err != nil {
		fatal("baseline control query: %v", err)
	}

	var (
		stop            atomic.Bool
		answered        atomic.Uint64
		timeouts        atomic.Uint64
		controlChecks   atomic.Uint64
		controlMismatch atomic.Uint64
		wg              sync.WaitGroup
	)

	// Query workers: open-loop blast over churned zones, with the control
	// zone interleaved 1-in-16 and byte-compared against the baseline.
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			conn, err := net.Dial("udp", udpAddr)
			if err != nil {
				fatal("worker dial: %v", err)
			}
			defer conn.Close()
			buf := make([]byte, 4096)
			for !stop.Load() {
				var q []byte
				control := rng.Intn(16) == 0
				if control {
					q = baselineQ
				} else {
					q = packQuery(uint16(rng.Intn(0xffff)+1), "www."+zoneOrigin(rng.Intn(*zones)))
				}
				resp, err := querConn(conn, q, buf, 200*time.Millisecond)
				if err != nil {
					timeouts.Add(1)
					continue
				}
				answered.Add(1)
				if control {
					controlChecks.Add(1)
					if !bytes.Equal(resp, baseline) {
						controlMismatch.Add(1)
					}
				}
			}
		}(w)
	}

	// Churn drivers: each poster owns a disjoint zone range and rotates a
	// batch window across it, bumping each batch to the next serial via real
	// HTTP POSTs and sampling propagation lag (POST issued → new
	// serial-coded address visible over UDP). With -pipeline, concurrent
	// posters are what give the validate stage work to overlap with commits.
	var (
		mu      sync.Mutex
		lags    []time.Duration
		applied int
		batches int
	)
	start := time.Now()
	serialOf := make([]uint32, *zones) // disjoint per-poster ranges: no sharing
	for i := range serialOf {
		serialOf[i] = 1
	}
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
	}
	per := *zones / *posters
	perChanges := *changes / *posters
	var pwg sync.WaitGroup
	for p := 0; p < *posters; p++ {
		lo, hi, quota := p*per, (p+1)*per, perChanges
		if p == *posters-1 {
			hi = *zones
			quota = *changes - perChanges*(*posters-1)
		}
		pwg.Add(1)
		go func(p, lo, hi, quota int) {
			defer pwg.Done()
			probeConn, err := net.Dial("udp", udpAddr)
			if err != nil {
				fatal("probe dial: %v", err)
			}
			defer probeConn.Close()
			probeBuf := make([]byte, 4096)
			var myLags []time.Duration
			myApplied, myBatches, next := 0, 0, lo
			for myApplied < quota {
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				n := *batch
				if rem := quota - myApplied; rem < n {
					n = rem
				}
				if span := hi - lo; n > span {
					n = span
				}
				doc := changelistDoc{}
				probeZone := -1
				var probeSerial uint32
				for k := 0; k < n; k++ {
					i := lo + (next-lo+k)%(hi-lo)
					serialOf[i]++
					doc.Zones = append(doc.Zones, zoneEntry{Origin: zoneOrigin(i), Zone: zoneText(serialOf[i])})
					if k == 0 {
						probeZone, probeSerial = i, serialOf[i]
					}
				}
				next = lo + (next-lo+n)%(hi-lo)
				t0 := time.Now()
				if st := postChangelist(ctlURL, doc); st != "applied" {
					fatal("poster %d batch %d status %q", p, myBatches, st)
				}
				myApplied += n
				myBatches++
				// Propagation probe: poll until the batch's first zone serves
				// its new serial-coded address.
				lag, ok := awaitSerial(probeConn, probeBuf, zoneOrigin(probeZone), probeSerial, t0, 2*time.Second)
				if ok {
					myLags = append(myLags, lag)
				}
				// Pull-plane probe: the same batch must surface on every edge
				// machine's own socket; poster 0 feeds the per-machine
				// distribution.
				if fleet != nil && p == 0 {
					fleet.sample(zoneOrigin(probeZone), probeSerial, t0)
				}
				if *pace > 0 {
					time.Sleep(*pace)
				}
			}
			mu.Lock()
			applied += myApplied
			batches += myBatches
			lags = append(lags, myLags...)
			mu.Unlock()
		}(p, lo, hi, quota)
	}
	pwg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	// Post-churn: the control zone must still answer byte-identically.
	final, err := queryOnce(udpAddr, baselineQ, time.Second)
	if err != nil {
		fatal("final control query: %v", err)
	}
	controlChecks.Add(1)
	if !bytes.Equal(final, baseline) {
		controlMismatch.Add(1)
	}

	rebuilds := store.Gen() - rebuildsAfterSeed
	shardClones := store.ShardRebuilds() - shardsAfterSeed
	rep := report{
		Zones:           *zones,
		ChangesTarget:   *changes,
		ChangesApplied:  applied,
		Batches:         batches,
		BatchSize:       *batch,
		ElapsedSec:      elapsed.Seconds(),
		Answered:        answered.Load(),
		AnsweredQPS:     float64(answered.Load()) / elapsed.Seconds(),
		Timeouts:        timeouts.Load(),
		ControlChecks:   controlChecks.Load(),
		ControlMismatch: controlMismatch.Load(),
		RouterRebuilds:  rebuilds,
		ShardRebuilds:   shardClones,
		Pipelined:       *pipelined,
		Posters:         *posters,
		LagSamples:      len(lags),
		Violations:      []string{},
	}
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		pct := func(q float64) float64 {
			i := int(q * float64(len(lags)-1))
			return float64(lags[i]) / float64(time.Millisecond)
		}
		rep.LagP50Ms, rep.LagP90Ms, rep.LagP99Ms = pct(0.50), pct(0.90), pct(0.99)
		rep.LagMaxMs = float64(lags[len(lags)-1]) / float64(time.Millisecond)
	}

	// Invariants.
	if rep.ControlMismatch > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"untouched-zone answers drifted: %d of %d control checks mismatched the baseline",
			rep.ControlMismatch, rep.ControlChecks))
	}
	if rebuilds > uint64(batches) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"rebuild storm: %d router rebuilds for %d apply batches (>1 per batch)", rebuilds, batches))
	}
	// O(Δ) rebuilds: a changed zone dirties exactly the one router shard
	// its origin hashes into, so shard clones are bounded by the applied
	// changes — anything past that means republishes are no longer
	// incremental.
	if shardClones > uint64(applied) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"non-incremental rebuilds: %d shard clones for %d applied changes (>1 per change)", shardClones, applied))
	}
	if *duration == 0 && applied < *changes {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"only %d of %d changes applied", applied, *changes))
	}
	if len(lags) > 0 && rep.LagP99Ms > float64(*lagBound)/float64(time.Millisecond) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"propagation lag p99 %.1fms exceeds bound %s", rep.LagP99Ms, *lagBound))
	}

	// Pull plane: with churn stopped and links as configured, every edge
	// machine must catch up to the controller exactly — serials and
	// content both — within the convergence deadline.
	if fleet != nil {
		for _, desc := range fleet.converge(store, 30*time.Second) {
			rep.Violations = append(rep.Violations, "pull machine did not converge: "+desc)
		}
		perMachine, all := fleet.reports()
		rep.PullMachines = pf.n
		rep.PullPerMachine = perMachine
		rep.PullLagSamples = len(all)
		rep.PullLagP50Ms, rep.PullLagP90Ms, rep.PullLagP99Ms, rep.PullLagMaxMs = lagPercentiles(all)
	}

	mode := "serial"
	if *pipelined {
		mode = fmt.Sprintf("pipelined x%d posters", *posters)
	}
	fmt.Printf("churn: %d changes in %d batches over %.1fs (%s); %d answered (%.0f qps), %d timeouts\n",
		applied, batches, rep.ElapsedSec, mode, rep.Answered, rep.AnsweredQPS, rep.Timeouts)
	fmt.Printf("churn: control checks %d (mismatch %d), rebuilds %d/%d batches (%d shard clones), lag p50/p90/p99 = %.1f/%.1f/%.1f ms\n",
		rep.ControlChecks, rep.ControlMismatch, rebuilds, batches, shardClones, rep.LagP50Ms, rep.LagP90Ms, rep.LagP99Ms)
	if fleet != nil {
		fmt.Printf("churn: pull fleet %d machines (drop=%.2f corrupt=%.2f dup=%.2f), lag p50/p90/p99/max = %.1f/%.1f/%.1f/%.1f ms over %d samples\n",
			rep.PullMachines, pf.drop, pf.corrupt, pf.dup,
			rep.PullLagP50Ms, rep.PullLagP90Ms, rep.PullLagP99Ms, rep.PullLagMaxMs, rep.PullLagSamples)
		for _, r := range rep.PullPerMachine {
			fmt.Printf("churn: pull %s lag p50/p99 = %.1f/%.1f ms (%d samples, %d misses); cycles=%d fail=%d retry=%d delta=%d full=%d resync=%d corrupt=%d timeout=%d\n",
				r.ID, r.LagP50Ms, r.LagP99Ms, r.LagSamples, r.LagMisses,
				r.Cycles, r.Failures, r.Retries, r.DeltaPulls, r.FullPulls, r.Resyncs, r.Corrupt, r.Timeouts)
		}
	}
	for _, v := range rep.Violations {
		fmt.Printf("churn: VIOLATION: %s\n", v)
	}
	if *jsonPath != "" {
		out, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fatal("write report: %v", err)
		}
	}
	if *assert && len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "churn: "+format+"\n", args...)
	os.Exit(1)
}

// The timeout must absorb a worst-case bulk-seed chunk: at 10⁶ hosted
// zones a 4096-zone changelist dirties every router shard, and that
// full-clone republish plus GC runs multi-second on one core.
var httpClient = &http.Client{Timeout: 5 * time.Minute}

// postChangelist submits one changelist document and returns the plan
// status string.
func postChangelist(url string, doc changelistDoc) string {
	body, err := json.Marshal(doc)
	if err != nil {
		fatal("marshal changelist: %v", err)
	}
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		fatal("POST changelist: %v", err)
	}
	defer resp.Body.Close()
	var pd struct {
		Status     string `json:"status"`
		Rejections []struct {
			Reason string `json:"reason"`
			Detail string `json:"detail"`
		} `json:"rejections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pd); err != nil {
		fatal("decode plan response: %v", err)
	}
	if len(pd.Rejections) > 0 {
		fmt.Fprintf(os.Stderr, "churn: rejection: %s (%s)\n", pd.Rejections[0].Reason, pd.Rejections[0].Detail)
	}
	return pd.Status
}

func packQuery(id uint16, name string) []byte {
	wire, err := dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA).Pack()
	if err != nil {
		fatal("pack query for %s: %v", name, err)
	}
	return wire
}

// querConn sends one query on an established UDP conn and returns the
// response bytes (a copy-free view into buf, valid until the next call).
func querConn(conn net.Conn, q, buf []byte, timeout time.Duration) ([]byte, error) {
	if _, err := conn.Write(q); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		if n >= 2 && buf[0] == q[0] && buf[1] == q[1] {
			return buf[:n], nil
		}
		// Stale response from an earlier timed-out query: keep draining.
	}
}

func queryOnce(addr string, q []byte, timeout time.Duration) ([]byte, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	resp, err := querConn(conn, q, buf, timeout)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), resp...), nil
}

// awaitSerial polls www.<origin> until the serial-coded address for the
// applied serial answers, returning the lag since t0.
func awaitSerial(conn net.Conn, buf []byte, origin string, serial uint32, t0 time.Time, patience time.Duration) (time.Duration, bool) {
	want := [4]byte{10, 0, byte(serial >> 8), byte(serial)}
	// Patience runs from now, not t0: the POST itself (commit included)
	// may already have consumed multiples of it at large store sizes, and
	// the lag sample — which does run from t0 — must still be taken.
	deadlineAt := time.Now().Add(patience)
	id := uint16(serial&0x7fff) | 0x8000
	q := packQuery(id, "www."+origin)
	for time.Now().Before(deadlineAt) {
		resp, err := querConn(conn, q, buf, 100*time.Millisecond)
		if err != nil {
			continue
		}
		m, err := dnswire.Unpack(append([]byte(nil), resp...))
		if err != nil {
			continue
		}
		for _, rr := range m.Answers {
			if a, ok := rr.(*dnswire.A); ok && a.Addr.As4() == want {
				return time.Since(t0), true
			}
		}
	}
	return 0, false
}
