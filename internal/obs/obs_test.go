package obs

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d", c.Load())
	}
	// Get-or-create returns the same instance.
	if r.Counter("x_total", "help") != c {
		t.Fatal("counter not deduplicated")
	}
	g := r.Gauge("depth", "help", "queue", "0")
	g.Set(7)
	g.Add(-2)
	if g.Load() != 5 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// A value exactly on a boundary lands in that bucket (le semantics).
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4.9, 5, 6, 100} {
		h.Observe(v)
	}
	b := h.Buckets()
	if len(b) != 4 {
		t.Fatalf("buckets = %d", len(b))
	}
	// Cumulative: <=1: {0.5, 1} = 2; <=2: +{1.0000001, 2} = 4; <=5: +{4.9,5} = 6; +Inf: 8.
	want := []uint64{2, 4, 6, 8}
	for i, w := range want {
		if b[i].Count != w {
			t.Fatalf("bucket[%d] = %d, want %d (%+v)", i, b[i].Count, w, b)
		}
	}
	if !math.IsInf(b[3].Upper, 1) {
		t.Fatal("last bucket not +Inf")
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-120.4000001) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
}

// histogramQuantile estimates quantile q of the unlabelled histogram
// series name in snap.
func histogramQuantile(snap Snapshot, name string, q float64) (float64, bool) {
	for _, p := range snap {
		if p.Name == name && p.Labels == "" && p.Kind == KindHistogram {
			return BucketQuantile(p.Buckets, q), true
		}
	}
	return 0, false
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i % 40))
	}
	p50 := h.Quantile(0.5)
	if p50 < 10 || p50 > 30 {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 30 || p99 > 40 {
		t.Fatalf("p99 = %v", p99)
	}
	if !math.IsNaN(NewHistogram([]float64{1}).Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
	// Observations beyond the last finite bucket clamp to it.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 2 {
		t.Fatalf("open-bucket quantile = %v", got)
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unsorted buckets")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestSnapshotLookups(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricQueriesTotal, "queries", "transport", "udp").Add(3)
	r.Counter(MetricQueriesTotal, "queries", "transport", "tcp").Add(2)
	r.GaugeFunc("fn_gauge", "", func() float64 { return 42 })
	r.CounterFunc("fn_counter_total", "", func() float64 { return 9 })
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)

	snap := r.Snapshot()
	if v, ok := snap.Value(MetricQueriesTotal, "transport", "udp"); !ok || v != 3 {
		t.Fatalf("udp = %v %v", v, ok)
	}
	if v, ok := snap.Value("fn_gauge"); !ok || v != 42 {
		t.Fatalf("gauge func = %v %v", v, ok)
	}
	if v, ok := snap.Value("fn_counter_total"); !ok || v != 9 {
		t.Fatalf("counter func = %v %v", v, ok)
	}
	if q, ok := histogramQuantile(snap, "lat_seconds", 0.5); !ok || q <= 0 || q > 1 {
		t.Fatalf("histogram quantile = %v %v", q, ok)
	}
	if _, ok := snap.Value("missing"); ok {
		t.Fatal("missing series found")
	}
}

func TestTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricQueriesTotal, "Total queries.", "transport", "udp").Add(7)
	r.Gauge(MetricQueueDepth, "Depth.", "queue", "0").Set(3)
	h := r.Histogram(MetricQueryDuration, "Latency.", []float64{0.001, 0.01})
	h.Observe(0.002)
	var sb strings.Builder
	if err := WriteText(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE " + MetricQueriesTotal + " counter",
		MetricQueriesTotal + `{transport="udp"} 7`,
		"# TYPE " + MetricQueueDepth + " gauge",
		MetricQueueDepth + `{queue="0"} 3`,
		"# TYPE " + MetricQueryDuration + " histogram",
		MetricQueryDuration + `_bucket{le="0.001"} 0`,
		MetricQueryDuration + `_bucket{le="0.01"} 1`,
		MetricQueryDuration + `_bucket{le="+Inf"} 1`,
		MetricQueryDuration + "_sum 0.002",
		MetricQueryDuration + "_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "k", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	WriteText(&sb, r.Snapshot())
	if !strings.Contains(sb.String(), `k="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Add(11)
	healthy := true
	srv, err := ServeWith("127.0.0.1:0", r, func() bool { return healthy }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "hits_total 11") {
		t.Fatalf("metrics = %d %q", code, body)
	}
	code, body = get("/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy healthz = %d", code)
	}
}

func TestTracerStages(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	// Moving the epoch back moves the tracer's clock forward.
	advance := func(d time.Duration) { tr.epoch = tr.epoch.Add(-d) }
	sp := tr.Begin(true)
	advance(10 * time.Microsecond)
	sp.Mark(StageReceive)
	advance(30 * time.Microsecond)
	sp.Mark(StageLookup)
	advance(5 * time.Microsecond)
	sp.Mark(StageWrite)
	if d := sp.End(); d < 45*time.Microsecond {
		t.Fatalf("End = %v, want at least the 45us advanced", d)
	}
	// An unsampled span stamps no stage but still ends.
	un := tr.Begin(false)
	un.Mark(StageReceive)
	un.End()

	snap := r.Snapshot()
	for stage, wantLo := range map[string]float64{"receive": 10e-6, "lookup": 30e-6, "write": 5e-6} {
		found := false
		for _, p := range snap {
			if p.Name == MetricStageDuration && strings.Contains(p.Labels, `stage="`+stage+`"`) {
				found = true
				if p.Count != 1 || p.Sum < wantLo {
					t.Fatalf("stage %s: count=%d sum=%v", stage, p.Count, p.Sum)
				}
			}
		}
		if !found {
			t.Fatalf("stage %s not registered", stage)
		}
	}
	for _, p := range snap {
		if p.Name == MetricQueryDuration && p.Count != 2 {
			t.Fatalf("e2e count = %d, want both spans", p.Count)
		}
	}
	if q, ok := histogramQuantile(snap, MetricQueryDuration, 0.5); !ok || q <= 0 {
		t.Fatalf("e2e histogram: %v %v", q, ok)
	}
	// Nil tracer is a usable no-op.
	var nilTr *Tracer
	sp2 := nilTr.Begin(true)
	sp2.Mark(StageReceive)
	sp2.End()
}

// BenchmarkSpan is the instrument's own cost per query: a span with the
// hot tier's four marks, sampled and unsampled.
func BenchmarkSpan(b *testing.B) {
	for _, sampled := range []bool{true, false} {
		name := "unsampled"
		if sampled {
			name = "sampled"
		}
		b.Run(name, func(b *testing.B) {
			tr := NewTracer(NewRegistry())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := tr.Begin(sampled)
				sp.Mark(StageScore)
				sp.Mark(StageQueue)
				sp.Mark(StageLookup)
				sp.Mark(StageWrite)
				spanSink += sp.End()
			}
		})
	}
}

var spanSink time.Duration

// TestRegistryConcurrent hammers get-or-create, increments, and snapshots
// from many goroutines; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("con_total", "", "g", string(rune('a'+g%4))).Inc()
				r.Histogram("con_seconds", "", []float64{0.1, 1}).Observe(0.05)
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, p := range r.Snapshot() {
		if p.Name == "con_total" {
			total += p.Value
		}
		if p.Name == "con_seconds" && p.Count != 8*500 {
			t.Fatalf("histogram count = %d", p.Count)
		}
	}
	if total != 8*500 {
		t.Fatalf("concurrent total = %v", total)
	}
}
