package netserve

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/obs"
)

// scrape fetches the text exposition and returns it.
func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts one sample's value from exposition text.
// histogramQuantile estimates quantile q of the unlabelled histogram
// series name in snap.
func histogramQuantile(snap obs.Snapshot, name string, q float64) (float64, bool) {
	for _, p := range snap {
		if p.Name == name && p.Labels == "" && p.Kind == obs.KindHistogram {
			return obs.BucketQuantile(p.Buckets, q), true
		}
	}
	return 0, false
}

func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " ([0-9.e+-]+)$")
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("sample %q not in exposition:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsEndpointUnderLoad is the end-to-end observability check: a
// real socket server with the scoring pipeline enabled, scraped over HTTP
// while live queries flow — the same wiring `authdns -metrics-addr` uses.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	// A hostile allowlist filter discards unknown resolvers at Smax, so the
	// run exercises both the answer path and the discard path. Loopback
	// sources are not in the allowlist, so every query scores.
	al := filters.NewAllowlist()
	al.SetActive(true)
	al.Penalty = 50 // scored but admitted (Smax 200)
	// heavy scores nothing until the test escalates by activating it.
	heavy := filters.NewAllowlist()
	heavy.Penalty = 1000
	pipe := filters.NewPipeline(al, heavy)
	// Every query sampled, so each stage histogram sees the few sent here.
	cfg := DefaultConfig()
	cfg.Flight = &flight.Config{SampleEvery: 1}
	srv := startServerCfg(t, cfg, pipe)

	ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, func() bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	code, before := scrape(t, ms.Addr(), "/metrics")
	if code != 200 {
		t.Fatalf("scrape = %d", code)
	}
	udpBefore := metricValue(t, before, obs.MetricQueriesTotal+`{transport="udp"}`)

	// Live load: answered UDP + TCP queries, plus one discarded query.
	for i := 0; i < 10; i++ {
		q := dnswire.NewQuery(uint16(i), dnswire.MustName("www.ex.test"), dnswire.TypeA)
		if _, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	qt := dnswire.NewQuery(99, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.TCPAddrActual(), qt, true, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Escalate through SetActive (synchronized with Score) rather than
	// writing a live filter's Penalty: now everything scores past Smax →
	// discard.
	heavy.SetActive(true)
	qd := dnswire.NewQuery(100, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), qd, false, 300*time.Millisecond); err == nil {
		t.Fatal("discarded query got an answer")
	}

	_, after := scrape(t, ms.Addr(), "/metrics")

	// Counters moved under load.
	if got := metricValue(t, after, obs.MetricQueriesTotal+`{transport="udp"}`); got != udpBefore+11 {
		t.Fatalf("udp queries: before=%v after=%v", udpBefore, got)
	}
	if got := metricValue(t, after, obs.MetricQueriesTotal+`{transport="tcp"}`); got < 1 {
		t.Fatalf("tcp queries = %v", got)
	}
	if got := metricValue(t, after, obs.MetricDiscardedTotal); got < 1 {
		t.Fatalf("discarded = %v", got)
	}
	// Per-filter hit counters.
	if got := metricValue(t, after, obs.MetricFilterHitsTotal+`{filter="allowlist"}`); got < 11 {
		t.Fatalf("filter hits = %v", got)
	}
	// Queue depth gauges (one per ladder rung) and queue activity.
	for _, q := range []string{"0", "1", "2"} {
		metricValue(t, after, obs.MetricQueueDepth+`{queue="`+q+`"}`)
	}
	if got := metricValue(t, after, obs.MetricQueueEnqueuedTotal); got < 11 {
		t.Fatalf("queue enqueued = %v", got)
	}
	// FORMERR and decode counters are present (may be zero).
	metricValue(t, after, obs.MetricFormErrTotal)
	metricValue(t, after, obs.MetricDecodeErrorsTotal)
	// End-to-end latency histogram with p50/p99 derivable from buckets.
	if !strings.Contains(after, obs.MetricQueryDuration+`_bucket{le="+Inf"}`) {
		t.Fatalf("latency histogram missing:\n%s", after)
	}
	if got := metricValue(t, after, obs.MetricQueryDuration+"_count"); got < 11 {
		t.Fatalf("latency count = %v", got)
	}
	snap := srv.Reg.Snapshot()
	p50, ok := histogramQuantile(snap, obs.MetricQueryDuration, 0.5)
	if !ok || p50 <= 0 {
		t.Fatalf("p50 = %v %v", p50, ok)
	}
	p99, ok := histogramQuantile(snap, obs.MetricQueryDuration, 0.99)
	if !ok || p99 < p50 {
		t.Fatalf("p99 = %v (p50 = %v)", p99, p50)
	}
	// Per-stage histograms recorded every stage.
	for _, stage := range []string{"receive", "cookie", "score", "queue", "lookup", "write"} {
		if got := metricValue(t, after, obs.MetricStageDuration+`_count{stage="`+stage+`"}`); got < 1 {
			t.Fatalf("stage %s count = %v", stage, got)
		}
	}
	// Health endpoint.
	if code, body := scrape(t, ms.Addr(), "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
}
