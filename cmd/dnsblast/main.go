// Command dnsblast is the saturation load generator for the batched UDP
// serving path: multi-core, batched send/receive over the same
// recvmmsg/sendmmsg arenas the server uses, with pre-packed query corpora
// so the generator can outrun the server it is measuring.
//
// Two ways to run it:
//
//	dnsblast -addr 127.0.0.1:5300 -duration 5s        # blast an external server
//	dnsblast -selfserve -compare -json report.json    # the make bench-saturate shape
//
// -selfserve spins an in-process netserve server over blast.test;
// -compare runs the full battery against it: ramp the offered rate to the
// server's saturation point, then re-offer -overload-x times that rate to
// report p50/p99 and the timeout fraction under overload — the Fig-10
// question: how much answering capacity does the server keep once a flood
// outruns it? (The name is historical: the battery once alternated a
// batched and an unbatched server loop; EXPERIMENTS.md keeps that A/B.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/udpbatch"
	"akamaidns/internal/zone"
)

// ProbePoint is one rung of the saturation ramp.
type ProbePoint struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AnsweredQPS float64 `json:"answered_qps"`
}

// PhaseReport is one measured load phase. For a saturation search it is
// the best probe, with the whole ramp attached.
type PhaseReport struct {
	Attempted       uint64  `json:"attempted"`
	Sent            uint64  `json:"sent"`
	Received        uint64  `json:"received"`
	Dropped         uint64  `json:"dropped,omitempty"`
	Unmatched       uint64  `json:"unmatched,omitempty"`
	Timeouts        uint64  `json:"timeouts"`
	DurationS       float64 `json:"duration_s"`
	OfferedQPS      float64 `json:"offered_qps"`
	AnsweredQPS     float64 `json:"answered_qps"`
	P50us           float64 `json:"p50_us"`
	P99us           float64 `json:"p99_us"`
	TimeoutFraction float64 `json:"timeout_fraction"`

	Probes []ProbePoint `json:"probes,omitempty"`
}

// Report is the JSON document -json emits (the `make bench-saturate`
// output).
type Report struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Batched       bool   `json:"client_batched_io"`
	Mix           string `json:"mix"`
	Workers       int    `json:"workers"`
	ClientBatch   int    `json:"client_batch"`
	// GeneratorCeilingQPS is the generator's own flat-out send rate on this
	// host, measured before the overload phases; the flood rate is capped
	// at a fraction of it so overload runs measure the server's I/O path,
	// not generator starvation on a shared core.
	GeneratorCeilingQPS float64 `json:"generator_ceiling_qps,omitempty"`

	Target     *PhaseReport `json:"target,omitempty"`     // -addr, or -selfserve alone
	Saturation *PhaseReport `json:"saturation,omitempty"` // -compare: best probe of the ramp

	// The Fig-10 shape: -overload-x times the saturation rate, arriving
	// cold. Under overload a reader that falls behind burns its core on
	// packets it then drops, so answered qps here is the throughput a
	// flooded nameserver keeps.
	Overload *PhaseReport `json:"overload,omitempty"`
}

func main() {
	addr := flag.String("addr", "", "blast this UDP server (host:port); mutually exclusive with -selfserve")
	selfserve := flag.Bool("selfserve", false, "spin an in-process server over blast.test and blast it via loopback")
	compare := flag.Bool("compare", false, "with -selfserve: saturation ramp, then the -overload-x flood, each phase on a fresh server")
	duration := flag.Duration("duration", 3*time.Second, "send window per phase")
	workers := flag.Int("workers", 0, "generator sockets, each a sender+receiver goroutine pair (0 = half the CPUs, min 2)")
	batch := flag.Int("batch", 32, "client-side datagrams per sendmmsg/recvmmsg")
	mix := flag.String("mix", "hit=6,nx=2,deleg=1,flood=1", "query class weights: hit/nx/deleg/flood")
	rate := flag.Float64("rate", 0, "total offered qps across workers (0 = unpaced, find saturation)")
	timeout := flag.Duration("timeout", 300*time.Millisecond, "drain window for in-flight answers after each send phase")
	seed := flag.Int64("seed", 1, "corpus seed")
	rampStart := flag.Float64("ramp-start", 20e3, "saturation search: first offered rate (qps)")
	rampGrowth := flag.Float64("ramp-growth", 1.5, "saturation search: rate multiplier between probes")
	reps := flag.Int("reps", 3, "-compare: repeat every phase this many times and report the median (damps scheduler noise on shared machines)")
	satMode := flag.String("sat-mode", "ramp", "-compare saturation methodology: 'ramp' (paced offered-rate sweep) or 'drain' (burst into the receive queue, clock the answer drain — isolates service rate, but the burst must fit the server's SO_RCVBUF)")
	burst := flag.Int("burst", 2048, "queries per burst in drain mode (must fit the server's SO_RCVBUF)")
	overloadX := flag.Float64("overload-x", 2, "-compare: overload phase offers this multiple of the saturation rate")
	serverRcvbuf := flag.Int("server-rcvbuf", 0, "selfserve SO_RCVBUF (0 = server default, negative = OS default; drain mode needs one deep enough for -burst)")
	jsonOut := flag.String("json", "", "write the JSON report here ('-' or '' = stdout)")
	assertReceived := flag.Uint64("assert-received", 0, "exit 1 unless at least this many answers arrived (CI smoke guard)")
	flag.Parse()

	if (*addr == "") == !*selfserve {
		fmt.Fprintln(os.Stderr, "dnsblast: exactly one of -addr or -selfserve is required")
		os.Exit(2)
	}
	if *compare && !*selfserve {
		fmt.Fprintln(os.Stderr, "dnsblast: -compare needs -selfserve (it restarts the server per phase)")
		os.Exit(2)
	}
	if *workers == 0 {
		*workers = runtime.NumCPU() / 2
		if *workers < 2 {
			*workers = 2
		}
	}
	cps, err := buildCorpus(*mix, *seed, 1024)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsblast:", err)
		os.Exit(2)
	}

	rep := Report{
		GeneratedUnix: time.Now().Unix(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Batched:       udpbatch.Supported,
		Mix:           *mix,
		Workers:       *workers,
		ClientBatch:   *batch,
	}

	// -rate 0 means "find saturation": ramp the offered rate geometrically
	// and keep the probe with the best answered qps. Each probe is short;
	// the -duration window applies to fixed-rate phases (overload, -rate).
	probeDur := *duration / 4
	if probeDur < 500*time.Millisecond {
		probeDur = 500 * time.Millisecond
	}
	saturate := func(target string) (PhaseReport, error) {
		return findSaturation(target, cps, *workers, *batch, probeDur, *timeout, *rampStart, *rampGrowth)
	}
	measure := func(target string) (PhaseReport, error) {
		if *rate > 0 {
			return runPhase(target, cps, *workers, *batch, *duration, *timeout, *rate)
		}
		return saturate(target)
	}
	switch {
	case *addr != "":
		ph, err := measure(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsblast:", err)
			os.Exit(1)
		}
		rep.Target = &ph
	case *compare:
		// Fresh server each phase so one phase's socket backlog can't leak
		// into the next.
		if *reps < 1 {
			*reps = 1
		}
		sat := saturate
		if *satMode == "drain" {
			sat = func(target string) (PhaseReport, error) {
				return drainPhase(target, cps, *batch, *burst, *duration, *timeout)
			}
		}
		// Saturation: report the median rep (a one-core box is noisy: one
		// bad scheduling run or a server that tips into drop-livelock early
		// must not set the number).
		var sats []PhaseReport
		for r := 0; r < *reps; r++ {
			ph, err := withSelfServe(*serverRcvbuf, sat)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dnsblast: saturation phase:", err)
				os.Exit(1)
			}
			sats = append(sats, ph)
			fmt.Fprintf(os.Stderr, "dnsblast: saturation rep %d/%d: %.0f qps\n", r+1, *reps, ph.AnsweredQPS)
		}
		satMed := medianPhase(sats)
		rep.Saturation = &satMed
		// Overload: offer the server a multiple of what it can sustain and
		// watch the latency tail, the timeout fraction, and how much
		// answering capacity it keeps. Deliberately cold: a flood does not
		// ramp up politely, it arrives at full rate, and surviving that
		// arrival is the point of batched reads — a reader that falls
		// behind in the first burst must drain many packets per wakeup to
		// catch back up instead of servicing a full queue it keeps
		// re-dropping (receive livelock).
		// The generator shares the machine with the server under test: an
		// offered rate near the generator's own flat-out ceiling starves
		// the server of CPU and measures the generator instead of the I/O
		// path. Calibrate that ceiling (a short unpaced burst) and keep the
		// flood at a sustainable fraction of it (0.75 leaves the server roughly the
		// CPU share it gets when a real flood arrives over a NIC).
		ceil, err := withSelfServe(*serverRcvbuf, func(target string) (PhaseReport, error) {
			return runPhase(target, cps, *workers, *batch, 300*time.Millisecond, 50*time.Millisecond, 0)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsblast: ceiling calibration:", err)
			os.Exit(1)
		}
		rep.GeneratorCeilingQPS = ceil.OfferedQPS
		overloadRate := *overloadX * satMed.AnsweredQPS
		if lid := 0.75 * ceil.OfferedQPS; lid > 0 && overloadRate > lid {
			overloadRate = lid
		}
		var ovs []PhaseReport
		for r := 0; r < *reps; r++ {
			ov, err := withSelfServe(*serverRcvbuf, func(target string) (PhaseReport, error) {
				return runPhase(target, cps, *workers, *batch, *duration, *timeout, overloadRate)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "dnsblast: overload phase:", err)
				os.Exit(1)
			}
			ovs = append(ovs, ov)
			fmt.Fprintf(os.Stderr, "dnsblast: overload rep %d/%d at %.0f qps: answered %.0f\n",
				r+1, *reps, overloadRate, ov.AnsweredQPS)
		}
		ov := medianPhase(ovs)
		rep.Overload = &ov
	default: // -selfserve without -compare: one measurement, one server
		ph, err := withSelfServe(*serverRcvbuf, measure)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsblast:", err)
			os.Exit(1)
		}
		rep.Target = &ph
	}

	out := os.Stdout
	if *jsonOut != "" && *jsonOut != "-" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsblast:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "dnsblast:", err)
		os.Exit(1)
	}

	var received uint64
	for _, ph := range []*PhaseReport{rep.Target, rep.Saturation, rep.Overload} {
		if ph != nil {
			received += ph.Received
		}
	}
	if *assertReceived > 0 && received < *assertReceived {
		fmt.Fprintf(os.Stderr, "dnsblast: received %d answers, want >= %d\n", received, *assertReceived)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dnsblast: %d answers received\n", received)
}

// withSelfServe starts a fresh in-process server, runs fn against it, and
// tears it down. The watchdog stays
// disarmed (the flood class would trip the malformed-rate breaker
// mid-measurement) and the flight recorder off (saturation measures the
// serving path, not the forensics tax).
func withSelfServe(rcvbuf int, fn func(target string) (PhaseReport, error)) (PhaseReport, error) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(blastZone, dnswire.MustName("blast.test")))
	cfg := netserve.DefaultConfig()
	cfg.TCPAddr = ""
	cfg.UDPReadBuffer = rcvbuf
	cfg.Watchdog = nil
	cfg.Flight = nil
	srv := netserve.New(cfg, nameserver.NewEngine(store), nil)
	if err := srv.Start(); err != nil {
		return PhaseReport{}, err
	}
	defer srv.Close()
	return fn(srv.UDPAddrActual())
}

// drainPhase is the burst-drain saturation measurement (see burstDrain).
// Latency quantiles are not meaningful here — the whole point is a full
// queue — so they are reported as zero; the overload phase carries the
// tail-latency story.
func drainPhase(target string, cps *corpus, batch, burst int, dur, drain time.Duration) (PhaseReport, error) {
	raddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return PhaseReport{}, err
	}
	_ = drain // burst settling uses its own short idle window, not -timeout
	// A burst is busy for only a few ms; accumulate a third of -duration of
	// busy time so the inter-burst settling doesn't blow up the wall clock.
	st, qps, err := burstDrain(raddr, cps.clone(), 0, batch, burst, dur/3, 20*time.Millisecond)
	if err != nil {
		return PhaseReport{}, err
	}
	ph := PhaseReport{
		Attempted:   st.attempted,
		Sent:        st.sent,
		Received:    st.received,
		Dropped:     st.dropped,
		AnsweredQPS: qps,
		OfferedQPS:  qps,
	}
	if qps > 0 {
		ph.DurationS = float64(st.received) / qps
	}
	if st.sent > st.received {
		ph.Timeouts = st.sent - st.received
		ph.TimeoutFraction = float64(ph.Timeouts) / float64(st.sent)
	}
	return ph, nil
}

// medianPhase picks the rep with the median answered qps — whole-report
// selection, so the latency and timeout numbers stay internally consistent
// with the qps they were measured alongside.
func medianPhase(phs []PhaseReport) PhaseReport {
	sorted := append([]PhaseReport(nil), phs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].AnsweredQPS < sorted[j].AnsweredQPS })
	return sorted[len(sorted)/2]
}

// findSaturation ramps the offered rate geometrically and returns the
// probe with the best answered qps; the ramp stops once two rungs in a
// row fail to improve on the best (past the peak of the capacity curve —
// on a shared machine, over-offering makes answered qps fall, not
// plateau). The full ramp rides along in Probes.
func findSaturation(target string, cps *corpus, workers, batch int, probeDur, drain time.Duration, start, growth float64) (PhaseReport, error) {
	var best PhaseReport
	var probes []ProbePoint
	stale := 0
	if start <= 0 {
		start = 20e3
	}
	if growth <= 1.01 {
		growth = 1.5
	}
	for rate := start; rate <= 4e6 && stale < 2; rate *= growth {
		ph, err := runPhase(target, cps, workers, batch, probeDur, drain, rate)
		if err != nil {
			return PhaseReport{}, err
		}
		probes = append(probes, ProbePoint{OfferedQPS: ph.OfferedQPS, AnsweredQPS: ph.AnsweredQPS})
		if ph.AnsweredQPS > best.AnsweredQPS*1.05 {
			best, stale = ph, 0
		} else {
			stale++
		}
	}
	best.Probes = probes
	return best, nil
}

// runPhase fans the corpus out across workers against addr and merges
// their stats. Offered qps is attempted/duration; answered qps counts
// only ID-matched responses. rate > 0 paces the senders to that total.
func runPhase(addr string, cps *corpus, workers, batch int, dur, drain time.Duration, rate float64) (PhaseReport, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return PhaseReport{}, err
	}
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(batch) * float64(workers) / rate * 1e9)
	}
	stats := make([]workerStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w], errs[w] = blastWorker(raddr, cps.clone(), w, batch, dur, drain, interval)
		}(w)
	}
	wg.Wait()
	var st workerStats
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return PhaseReport{}, errs[w]
		}
		st.attempted += stats[w].attempted
		st.sent += stats[w].sent
		st.dropped += stats[w].dropped
		st.received += stats[w].received
		st.unmatched += stats[w].unmatched
		st.hist.merge(&stats[w].hist)
	}
	ph := PhaseReport{
		Attempted: st.attempted,
		Sent:      st.sent,
		Received:  st.received,
		Dropped:   st.dropped,
		Unmatched: st.unmatched,
		DurationS: dur.Seconds(),
		P50us:     st.hist.quantile(0.50),
		P99us:     st.hist.quantile(0.99),
	}
	if s := dur.Seconds(); s > 0 {
		ph.OfferedQPS = float64(st.attempted) / s
		ph.AnsweredQPS = float64(st.received) / s
	}
	if st.sent > st.received {
		ph.Timeouts = st.sent - st.received
	}
	if st.sent > 0 {
		ph.TimeoutFraction = float64(ph.Timeouts) / float64(st.sent)
	}
	return ph, nil
}
