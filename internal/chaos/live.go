package chaos

// The live scenario runs the query-of-death drill against the real socket
// server (internal/netserve) instead of the simulated platform: real UDP
// packets, real handler panics contained by the recover boundary, a real
// monitoring agent flipping health. Unlike the simulated scenarios it runs
// on the wall clock, so its event log is human-readable but not
// byte-deterministic; the invariants it checks are exact regardless:
//
//   - containment: one poison signature costs at most one crash per UDP
//     worker before the quarantine refuses it, and unrelated queries are
//     answered throughout;
//   - suspension: a storm of distinct poison signatures fails the server's
//     storm probe, its monitoring agent suspends it, and the server reports
//     unhealthy (the /healthz 503 that would pull the anycast route, §4.2.1);
//   - recovery: once the storm stops, the agent's passing sweeps lift the
//     suspension and the server answers again;
//   - forensics: the attack is reconstructable after the fact from the query
//     flight recorder's live HTTP surface — the flood suffix is a /debug/topk
//     heavy hitter, quarantine refusals have matching /debug/queries records,
//     and the quarantined signature is listed by /debug/qod.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/flight"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
	"akamaidns/internal/zone"
)

// The live drill's fixed operating point.
const (
	// liveWorkers is the server's parallel UDP read loops; the containment
	// invariant caps crashes per poison signature at this count.
	liveWorkers = 2
	// liveStormSize is how many distinct poison signatures the suspension
	// phase fires at once.
	liveStormSize = 40
	// liveProbeTimeout bounds each client exchange.
	liveProbeTimeout = 300 * time.Millisecond
	// liveDeadline bounds how long the drill waits for the suspension to
	// take hold, and then to lift; it must exceed liveAgentInterval times
	// the agent's RecoverThreshold.
	liveDeadline = 5 * time.Second
)

// LiveResult summarizes one live drill.
type LiveResult struct {
	Panics      uint64 // handler panics contained by the recover boundary
	Refused     uint64 // queries refused pre-decode by the quarantine
	Quarantined uint64 // distinct signatures admitted to the quarantine
	Suspensions uint64 // times the monitoring agent suspended the server
	Recorded    uint64 // flight-recorder records captured across the drill
	Violations  []string
	// Log is the wall-clock event narration (not deterministic across runs).
	Log []byte
}

const liveZone = `
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
@    IN NS ns1
ns1  IN A 198.51.100.1
www  IN A 192.0.2.1
`

// liveDrill carries one run's state.
type liveDrill struct {
	srv   *netserve.Server
	start time.Time
	log   bytes.Buffer
	viols []string
}

func (d *liveDrill) logf(kind, format string, args ...any) {
	fmt.Fprintf(&d.log, "[%8s] %-12s %s\n",
		time.Since(d.start).Round(time.Millisecond), kind, fmt.Sprintf(format, args...))
}

func (d *liveDrill) violate(invariant, format string, args ...any) {
	msg := invariant + ": " + fmt.Sprintf(format, args...)
	d.logf("VIOLATION", "%s", msg)
	d.viols = append(d.viols, msg)
}

func (d *liveDrill) probe(id uint16, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	q := dnswire.NewQuery(id, dnswire.MustName(name), qtype)
	return netserve.Exchange(d.srv.UDPAddrActual(), q, false, liveProbeTimeout)
}

// checkServing asserts an unrelated query is answered right now.
func (d *liveDrill) checkServing(id uint16, phase string) {
	resp, err := d.probe(id, "www.live.test", dnswire.TypeA)
	if err != nil {
		d.violate("live-serving", "%s: unrelated query failed: %v", phase, err)
		return
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		d.violate("live-serving", "%s: unrelated query degraded: rcode=%v answers=%d",
			phase, resp.RCode, len(resp.Answers))
	}
}

// RunLive executes the live-server drill and reports the result. The error
// return covers setup problems; invariant breaches are data, in Violations.
func RunLive() (*LiveResult, error) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(liveZone, dnswire.MustName("live.test")))
	scfg := netserve.DefaultConfig()
	scfg.UDPWorkers = liveWorkers
	scfg.QuarantineTTL = time.Minute // no probation lapses mid-drill
	srv := netserve.New(scfg, nameserver.NewEngine(store), nil)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()
	acfg := monitor.DefaultAgentConfig("live")
	acfg.Interval, acfg.FailThreshold, acfg.RecoverThreshold = liveAgentInterval, 1, 4
	agent := monitor.NewAgent(propagate.NewWallClock(), acfg, srv, nil)
	agent.AddProbe(srv.StormProbe())
	agent.Start()
	defer agent.Stop()

	// The forensics surface the drill interrogates over real HTTP: the same
	// /metrics + /debug mount cmd/authdns serves.
	ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, srv.RegisterDebug)
	if err != nil {
		return nil, err
	}
	defer ms.Close()

	d := &liveDrill{srv: srv, start: time.Now()}
	d.logf("run", "live drill: udp=%s debug=http://%s workers=%d",
		srv.UDPAddrActual(), ms.Addr(), liveWorkers)
	d.checkServing(1, "baseline")

	// Phase 1 — containment: one poison signature, repeated.
	poison := dnswire.QoDMarkerLabel + ".live.test"
	if _, err := d.probe(2, poison, dnswire.TypeA); err == nil {
		d.violate("qod-containment", "first poison query was answered")
	}
	d.logf("inject", "poison %s crashed its handler (contained)", poison)
	resp, err := d.probe(3, poison, dnswire.TypeA)
	switch {
	case err != nil:
		d.violate("qod-containment", "quarantined poison not refused: %v", err)
	case resp.RCode != dnswire.RCodeRefused:
		d.violate("qod-containment", "quarantined poison rcode = %v, want REFUSED", resp.RCode)
	default:
		d.logf("quarantine", "%s refused pre-decode", poison)
	}
	if got := srv.Metrics.Panics.Load(); got > uint64(liveWorkers) {
		d.violate("qod-containment", "%d crashes for one signature, cap %d (one per worker)",
			got, liveWorkers)
	}
	d.checkServing(4, "during containment")

	// Phase 2 — suspension: a burst of distinct poison signatures, each a
	// contained crash, fails the storm probe at the agent's next sweep and
	// the server self-withdraws.
	fired := d.fire(liveStormSize, func(i int) string {
		return fmt.Sprintf("%s.s%d.live.test", dnswire.QoDMarkerLabel, i)
	})
	deadline := time.Now().Add(liveDeadline)
	for srv.Healthy() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Healthy() {
		d.violate("live-suspension", "agent never suspended after %d distinct poison signatures (%d panics)",
			fired, srv.Metrics.Panics.Load())
	} else {
		d.logf("suspend", "agent suspended after %d distinct signatures; health=503", fired)
		// While suspended, UDP traffic is read and discarded: an answered
		// probe while still unhealthy would mean the withdrawal is a lie.
		if resp, err := d.probe(200, "www.live.test", dnswire.TypeA); err == nil && !srv.Healthy() {
			d.violate("live-suspension", "query answered while suspended: rcode=%v", resp.RCode)
		}
	}

	// Phase 3 — recovery: the agent's sweeps pass again and service resumes.
	deadline = time.Now().Add(liveDeadline)
	for !srv.Healthy() {
		if time.Now().After(deadline) {
			d.violate("live-recovery", "still suspended after %s", liveDeadline)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv.Healthy() {
		d.logf("recover", "agent lifted the suspension; health=200")
		d.checkServing(201, "after recovery")
	}

	// Phase 4 — laundered flood: a burst of random-subdomain queries under
	// one parent, the NXDOMAIN-flood shape that is a hot-cache miss by
	// construction. Fire-and-forget over one socket; loopback may drop a few
	// under burst, so the forensics thresholds below stay lenient.
	const floodN = 1024
	sent := d.flood(floodN)
	d.logf("flood", "fired %d random-subdomain queries under flood.live.test", sent)
	// Expect ~floodN/SampleEvery captures; wait for half that to tolerate
	// loopback drops.
	d.awaitCapture(floodN/(2*flight.DefaultSampleEvery), 2*time.Second)

	// Phase 5 — forensics: reconstruct both attacks from the recorder's HTTP
	// surface alone, the way an operator (or the NOCC) would.
	base := "http://" + ms.Addr()
	d.checkFloodForensics(base)
	d.checkQoDForensics(base, poison)
	d.checkRollupSeries(base)

	d.logf("summary", "panics=%d refused=%d quarantined=%d suspensions=%d recorded=%d violations=%d",
		srv.Metrics.Panics.Load(), srv.Metrics.QoDRefused.Load(),
		srv.Quarantine().Admitted(), agent.Suspensions(),
		srv.FlightRecorder().Recorded(), len(d.viols))
	return &LiveResult{
		Panics:      srv.Metrics.Panics.Load(),
		Refused:     srv.Metrics.QoDRefused.Load(),
		Quarantined: srv.Quarantine().Admitted(),
		Suspensions: agent.Suspensions(),
		Recorded:    srv.FlightRecorder().Recorded(),
		Violations:  d.viols,
		Log:         append([]byte(nil), d.log.Bytes()...),
	}, nil
}

// liveAgentInterval is the drill's agent sweep interval: short, so the
// drill takes well under a second per phase.
const liveAgentInterval = 100 * time.Millisecond

// flood fires n random-subdomain A queries under flood.live.test.
func (d *liveDrill) flood(n int) int {
	return d.fire(n, func(i int) string { return fmt.Sprintf("f%04d.flood.live.test", i) })
}

// fire sends n A queries for name(0..n-1) without waiting for answers,
// pacing lightly so the loopback socket buffer keeps up. Reports how many
// packets were written.
func (d *liveDrill) fire(n int, name func(i int) string) int {
	conn, err := net.Dial("udp", d.srv.UDPAddrActual())
	if err != nil {
		d.violate("live-socket", "client socket: %v", err)
		return 0
	}
	defer conn.Close()
	sent := 0
	for i := 0; i < n; i++ {
		q := dnswire.NewQuery(uint16(1000+i), dnswire.MustName(name(i)), dnswire.TypeA)
		wire, err := q.Pack()
		if err != nil {
			continue
		}
		if _, err := conn.Write(wire); err == nil {
			sent++
		}
		if i%64 == 63 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	return sent
}

// awaitCapture waits until the flight recorder has captured at least want
// records (head sampling makes the exact count probabilistic) or the
// deadline passes — the flood is fire-and-forget, so processing lags sends.
func (d *liveDrill) awaitCapture(want int, deadline time.Duration) {
	rec := d.srv.FlightRecorder()
	end := time.Now().Add(deadline)
	for rec.Recorded() < uint64(want) && time.Now().Before(end) {
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchJSON GETs one forensics endpoint and decodes it.
func (d *liveDrill) fetchJSON(url string, into any) bool {
	resp, err := http.Get(url)
	if err != nil {
		d.violate("forensics-http", "GET %s: %v", url, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.violate("forensics-http", "GET %s: status %d", url, resp.StatusCode)
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		d.violate("forensics-http", "GET %s: bad JSON: %v", url, err)
		return false
	}
	return true
}

// checkFloodForensics asserts the flood's parent suffix surfaced as a
// /debug/topk heavy hitter — the NXNSAttack-diagnosis workflow.
func (d *liveDrill) checkFloodForensics(base string) {
	var topk struct {
		Suffixes []struct {
			Key   string `json:"key"`
			Count uint64 `json:"count"`
		} `json:"suffixes"`
	}
	if !d.fetchJSON(base+"/debug/topk", &topk) {
		return
	}
	for _, s := range topk.Suffixes {
		if s.Key == "flood.live.test." {
			if s.Count < 4 {
				d.violate("flood-forensics", "flood suffix in top-k but count=%d, want >= 4", s.Count)
				return
			}
			d.logf("forensics", "flood suffix %q is a top-k heavy hitter (count=%d)", s.Key, s.Count)
			return
		}
	}
	d.violate("flood-forensics", "flood.live.test. not in /debug/topk suffixes (%d entries)", len(topk.Suffixes))
}

// checkQoDForensics asserts the quarantine's refusals left matching records
// in the ring (anomalies escalate to 100%% capture) and that /debug/qod
// lists the quarantined signature.
func (d *liveDrill) checkQoDForensics(base, poison string) {
	var queries struct {
		Records []struct {
			QnameSuffix string `json:"qname_suffix"`
			Verdict     string `json:"verdict"`
			Anomalous   bool   `json:"anomalous"`
		} `json:"records"`
	}
	if d.fetchJSON(base+"/debug/queries?verdict=quarantined&n=2048", &queries) {
		matched := 0
		for _, r := range queries.Records {
			if strings.Contains(r.QnameSuffix, dnswire.QoDMarkerLabel) && r.Anomalous {
				matched++
			}
		}
		if matched == 0 {
			d.violate("qod-forensics", "no quarantine-verdict record matches the %s poison (got %d quarantined records)",
				poison, len(queries.Records))
		} else {
			d.logf("forensics", "%d quarantine refusals captured with matching qname records", matched)
		}
	}
	var qodDoc struct {
		Signatures []struct {
			Suffix string `json:"suffix"`
		} `json:"signatures"`
	}
	if d.fetchJSON(base+"/debug/qod", &qodDoc) {
		found := false
		for _, sig := range qodDoc.Signatures {
			if strings.Contains(sig.Suffix, dnswire.QoDMarkerLabel) {
				found = true
				break
			}
		}
		if !found {
			d.violate("qod-forensics", "/debug/qod lists no signature for the poison (%d signatures)", len(qodDoc.Signatures))
		} else {
			d.logf("forensics", "/debug/qod lists the quarantined poison signature")
		}
	}
}

// checkRollupSeries asserts the per-(zone, rcode) rollup reached /metrics —
// the flood must show as NXDOMAIN records against live.test.
func (d *liveDrill) checkRollupSeries(base string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		d.violate("forensics-http", "GET /metrics: %v", err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.violate("forensics-http", "read /metrics: %v", err)
		return
	}
	want := `akamaidns_flight_zone_rcode_records_total{rcode="NXDOMAIN",zone="live.test."}`
	if !bytes.Contains(body, []byte(want)) {
		d.violate("flood-forensics", "rollup series %s missing from /metrics", want)
		return
	}
	d.logf("forensics", "flight rollup series present on /metrics")
}
