package flight

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"akamaidns/internal/obs"
)

func wireName(labels ...string) []byte {
	var out []byte
	for _, l := range labels {
		out = append(out, byte(len(l)))
		out = append(out, l...)
	}
	return append(out, 0)
}

func testSample(verdict Verdict, rcode uint8) Sample {
	return Sample{
		QnameWire: wireName("www", "ex", "test"),
		Zone:      "ex.test.",
		Src:       netip.MustParseAddrPort("192.0.2.53:4242"),
		Latency:   -1,
		QType:     1,
		RCode:     rcode,
		Verdict:   verdict,
		Sampled:   true,
	}
}

// TestHeadSampling: the recorder keeps no sampling state of its own; a
// normal sample is captured exactly when the serving path sampled it.
func TestHeadSampling(t *testing.T) {
	rec := New(Config{SampleEvery: 4}, obs.NewRegistry())
	w := rec.Worker()
	for i := 0; i < 16; i++ {
		s := testSample(VerdictCached, 0)
		s.Sampled = i%4 == 3
		w.Observe(s)
	}
	if got := rec.Recorded(); got != 4 {
		t.Fatalf("4 of 16 observations sampled: recorded %d, want 4", got)
	}
	if got := rec.sampledC.Load(); got != 4 {
		t.Fatalf("sampled counter = %d, want 4", got)
	}
}

func TestAnomalyEscalation(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
	}{
		{"refused", testSample(VerdictServed, 5)},
		{"servfail", testSample(VerdictServed, 2)},
		{"formerr", testSample(VerdictError, 1)},
		{"quarantined", testSample(VerdictQuarantined, 5)},
		{"shed", testSample(VerdictShed, 0)},
		{"crashed", testSample(VerdictCrashed, 0)},
		{"latency-outlier", func() Sample {
			s := testSample(VerdictServed, 0)
			s.Latency = time.Second
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := New(Config{}, obs.NewRegistry())
			w := rec.Worker()
			// Unsampled, every observation must still record.
			s := tc.s
			s.Sampled = false
			for i := 0; i < 3; i++ {
				w.Observe(s)
			}
			if got := rec.anomalousC.Load(); got != 3 {
				t.Fatalf("anomalous captures = %d, want 3", got)
			}
			recs := rec.Snapshot(0)
			if len(recs) != 3 || !recs[0].Anomalous() {
				t.Fatalf("snapshot = %d records, anomalous=%v", len(recs), recs[0].Anomalous())
			}
		})
	}
}

func TestVerdictNoneIgnored(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	s := testSample(VerdictNone, 0)
	w.Observe(s)
	if rec.Recorded() != 0 {
		t.Fatal("VerdictNone sample was recorded")
	}
}

func TestRecordContents(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	s := testSample(VerdictView, 3)
	s.QnameWire = wireName("WWW", "Ex", "Test") // folded on capture
	s.Latency = 1500 * time.Microsecond
	s.TCP = true
	w.Observe(s)
	recs := rec.Snapshot(0)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.SuffixString() != "www.ex.test." {
		t.Fatalf("suffix = %q", r.SuffixString())
	}
	if r.Verdict != VerdictView || r.RCode != 3 || r.QType != 1 {
		t.Fatalf("verdict/rcode/qtype = %v/%d/%d", r.Verdict, r.RCode, r.QType)
	}
	if r.Latency != 1500 {
		t.Fatalf("latency = %dus, want 1500", r.Latency)
	}
	if r.Flags&FlagTCP == 0 {
		t.Fatal("TCP flag lost")
	}
	if got := r.ClientAddrPort().String(); got != "192.0.2.53:4242" {
		t.Fatalf("client = %q", got)
	}
	if r.Hash == 0 {
		t.Fatal("qname hash missing")
	}
}

func TestLongNameKeepsTail(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	s := testSample(VerdictServed, 5)
	s.QnameWire = wireName(strings.Repeat("a", 60), "flood", "ex", "test")
	w.Observe(s)
	r := rec.Snapshot(0)[0]
	got := r.SuffixString()
	if len(got) != SuffixBytes || !strings.HasSuffix(got, "flood.ex.test.") {
		t.Fatalf("suffix = %q (len %d)", got, len(got))
	}
}

func TestQnameTextFallback(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	s := testSample(VerdictShed, 0)
	s.QnameWire = nil
	s.Qname = "Spoof.Ex.Test."
	w.Observe(s)
	if got := rec.Snapshot(0)[0].SuffixString(); got != "spoof.ex.test." {
		t.Fatalf("suffix = %q", got)
	}
	top := rec.TopSuffixes()
	if len(top) != 1 || string(top[0].Key) != "ex.test." {
		t.Fatalf("top suffixes = %v", top)
	}
}

func TestTopDimensions(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	for i := 0; i < 10; i++ {
		s := testSample(VerdictServed, 0)
		s.QnameWire = wireName("host", "attacked", "test")
		s.QType = 28 // AAAA
		w.Observe(s)
	}
	s := testSample(VerdictServed, 0)
	w.Observe(s)

	top := rec.TopSuffixes()
	if len(top) == 0 || string(top[0].Key) != "attacked.test." || top[0].Count != 10 {
		t.Fatalf("top suffix = %v", top)
	}
	qt := rec.TopQTypes()
	if len(qt) == 0 || string(qt[0].Key) != "AAAA" || qt[0].Count != 10 {
		t.Fatalf("top qtypes = %v", qt)
	}
	res := rec.TopResolvers()
	a16 := netip.MustParseAddr("192.0.2.53").As16()
	// Key is the raw 16-byte address form.
	if len(res) != 1 || string(res[0].Key) != string(a16[:]) {
		t.Fatalf("top resolvers = %v", res)
	}
	if res[0].Count != 11 {
		t.Fatalf("resolver count = %d, want 11", res[0].Count)
	}
}

func TestRingWrap(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.put(&Record{When: int64(i)})
	}
	got := r.snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("snapshot = %d records, want 4", len(got))
	}
	for i, rec := range got {
		if rec.When != int64(9-i) {
			t.Fatalf("snapshot[%d].When = %d, want %d (newest first)", i, rec.When, 9-i)
		}
	}
	if r.written() != 10 {
		t.Fatalf("written = %d", r.written())
	}
}

func TestSnapshotMaxAndOrder(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w1, w2 := rec.Worker(), rec.Worker()
	for i := 0; i < 6; i++ {
		w1.Observe(testSample(VerdictCached, 0))
		w2.Observe(testSample(VerdictView, 0))
	}
	recs := rec.Snapshot(5)
	if len(recs) != 5 {
		t.Fatalf("snapshot max: %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].When > recs[i-1].When {
			t.Fatal("snapshot not newest-first across rings")
		}
	}
}

func TestRollupSeries(t *testing.T) {
	reg := obs.NewRegistry()
	rec := New(Config{SampleEvery: 1}, reg)
	w := rec.Worker()
	w.Observe(testSample(VerdictCached, 0)) // zone ex.test., NOERROR, sampled
	s := testSample(VerdictQuarantined, 3)
	s.Zone = ""
	w.Observe(s) // no zone, NXDOMAIN, anomalous
	var b strings.Builder
	if err := obs.WriteText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		obs.MetricFlightZoneRcode + `{rcode="NOERROR",zone="ex.test."} 1`,
		obs.MetricFlightZoneRcode + `{rcode="NXDOMAIN",zone="none"} 1`,
		obs.MetricFlightRecordsTotal + `{reason="sampled"} 1`,
		obs.MetricFlightRecordsTotal + `{reason="anomalous"} 1`,
		obs.MetricFlightSampleEvery + " 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestObserveZeroAlloc pins the capture-path allocation contract: after the
// rollup and sketch slots exist, Observe allocates nothing — sampled
// captures, anomalous captures, and skipped observations alike.
func TestObserveZeroAlloc(t *testing.T) {
	rec := New(Config{SampleEvery: 4}, obs.NewRegistry())
	w := rec.Worker()
	warm := testSample(VerdictCached, 0)
	skipped := warm
	skipped.Sampled = false
	anomalous := testSample(VerdictQuarantined, 5)
	for i := 0; i < 64; i++ { // populate rollup counters and sketch slots
		w.Observe(warm)
		w.Observe(anomalous)
	}
	if got := testing.AllocsPerRun(200, func() { w.Observe(warm) }); got != 0 {
		t.Fatalf("sampled Observe allocates %v/op", got)
	}
	if got := testing.AllocsPerRun(200, func() { w.Observe(anomalous) }); got != 0 {
		t.Fatalf("anomalous Observe allocates %v/op", got)
	}
	if got := testing.AllocsPerRun(200, func() { w.Observe(skipped) }); got != 0 {
		t.Fatalf("skipped Observe allocates %v/op", got)
	}
}

func TestQueriesHandlerFilters(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	w.Observe(testSample(VerdictCached, 0))
	q := testSample(VerdictQuarantined, 5)
	q.QnameWire = wireName("qod-trigger", "ex", "test")
	w.Observe(q)

	var doc struct {
		SampleEvery int `json:"sample_every"`
		Records     []struct {
			QnameSuffix string `json:"qname_suffix"`
			Verdict     string `json:"verdict"`
			RCode       string `json:"rcode"`
			Anomalous   bool   `json:"anomalous"`
		} `json:"records"`
	}
	get := func(target string) {
		t.Helper()
		req := httptest.NewRequest("GET", target, nil)
		rw := httptest.NewRecorder()
		rec.QueriesHandler().ServeHTTP(rw, req)
		if rw.Code != 200 {
			t.Fatalf("GET %s = %d: %s", target, rw.Code, rw.Body)
		}
		doc.Records = nil
		if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
	}
	get("/debug/queries")
	if doc.SampleEvery != 1 || len(doc.Records) != 2 {
		t.Fatalf("unfiltered: sample_every=%d records=%d", doc.SampleEvery, len(doc.Records))
	}
	get("/debug/queries?verdict=quarantined")
	if len(doc.Records) != 1 || doc.Records[0].Verdict != "quarantined" ||
		doc.Records[0].RCode != "REFUSED" || !doc.Records[0].Anomalous {
		t.Fatalf("verdict filter: %+v", doc.Records)
	}
	get("/debug/queries?suffix=qod-trigger")
	if len(doc.Records) != 1 || !strings.Contains(doc.Records[0].QnameSuffix, "qod-trigger") {
		t.Fatalf("suffix filter: %+v", doc.Records)
	}
	get("/debug/queries?anomalous=1")
	if len(doc.Records) != 1 {
		t.Fatalf("anomalous filter: %+v", doc.Records)
	}
	get("/debug/queries?rcode=REFUSED")
	if len(doc.Records) != 1 {
		t.Fatalf("rcode filter: %+v", doc.Records)
	}
	// Unknown filter values are a 400, not an empty 200.
	req := httptest.NewRequest("GET", "/debug/queries?verdict=nope", nil)
	rw := httptest.NewRecorder()
	rec.QueriesHandler().ServeHTTP(rw, req)
	if rw.Code != 400 {
		t.Fatalf("bad verdict = %d", rw.Code)
	}
}

func TestTopKHandler(t *testing.T) {
	rec := New(Config{SampleEvery: 1}, obs.NewRegistry())
	w := rec.Worker()
	for i := 0; i < 5; i++ {
		w.Observe(testSample(VerdictServed, 0))
	}
	req := httptest.NewRequest("GET", "/debug/topk", nil)
	rw := httptest.NewRecorder()
	rec.TopKHandler().ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("GET /debug/topk = %d", rw.Code)
	}
	var doc struct {
		Suffixes  []struct{ Key string } `json:"suffixes"`
		QTypes    []struct{ Key string } `json:"qtypes"`
		Resolvers []struct{ Key string } `json:"resolvers"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Suffixes) != 1 || doc.Suffixes[0].Key != "ex.test." {
		t.Fatalf("suffixes = %+v", doc.Suffixes)
	}
	if len(doc.QTypes) != 1 || doc.QTypes[0].Key != "A" {
		t.Fatalf("qtypes = %+v", doc.QTypes)
	}
	if len(doc.Resolvers) != 1 || doc.Resolvers[0].Key != "192.0.2.53" {
		t.Fatalf("resolvers = %+v", doc.Resolvers)
	}
}

func TestVerdictNames(t *testing.T) {
	for v := VerdictServed; v <= VerdictCrashed; v++ {
		name := v.String()
		if name == "unknown" {
			t.Fatalf("verdict %d unnamed", v)
		}
		back, ok := VerdictFromString(name)
		if !ok || back != v {
			t.Fatalf("round-trip %q: %v %v", name, back, ok)
		}
		if want := v > VerdictView; v.Anomalous() != want {
			t.Fatalf("verdict %s anomalous = %v", name, v.Anomalous())
		}
	}
}

// TestRollupCapped drives the rollup with twice its series cap of distinct
// zones: the registered series stay bounded, every capture is still counted
// (the overflow in zone="other"), and past the cap a new zone costs no
// allocation.
func TestRollupCapped(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{}, reg)
	zones := make([]string, 2*maxRollupSeries)
	for i := range zones {
		zones[i] = fmt.Sprintf("z%05d.test.", i)
	}
	const nx = 3 // NXDOMAIN
	for _, z := range zones {
		r.rollup(z, nx)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.rollup(zones[maxRollupSeries+i%maxRollupSeries], nx)
		i++
	})
	if allocs != 0 {
		t.Fatalf("a capture past the cap allocates %.1f", allocs)
	}
	series, total, other := 0, 0.0, 0.0
	for _, p := range reg.Snapshot() {
		if p.Name != obs.MetricFlightZoneRcode {
			continue
		}
		series++
		total += p.Value
		if strings.Contains(p.Labels, `zone="other"`) {
			other = p.Value
		}
	}
	if series != maxRollupSeries+1 {
		t.Errorf("%d rollup series for %d zones, want the cap %d plus one other", series, len(zones), maxRollupSeries)
	}
	if want := float64(len(zones) + 101); total != want || other != want-maxRollupSeries {
		t.Errorf("rollup counts %v (other %v), want %v (other %v)", total, other, want, want-maxRollupSeries)
	}
}
