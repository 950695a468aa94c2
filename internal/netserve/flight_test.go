package netserve

import (
	"encoding/json"
	"net/netip"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/flight"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/obs"
	"akamaidns/internal/zone"
)

// flightQueriesDoc mirrors the /debug/queries JSON shape.
type flightQueriesDoc struct {
	SampleEvery int `json:"sample_every"`
	Recorded    int `json:"recorded_total"`
	Records     []struct {
		QnameSuffix string `json:"qname_suffix"`
		QType       string `json:"qtype"`
		RCode       string `json:"rcode"`
		Verdict     string `json:"verdict"`
		Anomalous   bool   `json:"anomalous"`
	} `json:"records"`
}

func getJSON(t *testing.T, addr, path string, into any) {
	t.Helper()
	code, body := scrape(t, addr, path)
	if code != 200 {
		t.Fatalf("GET %s = %d: %s", path, code, body)
	}
	if err := json.Unmarshal([]byte(body), into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
	}
}

// TestFlightForensicsEndToEnd drives every serving tier over real sockets
// and reconstructs what happened purely from the forensics endpoints — the
// operator workflow the flight recorder exists for.
func TestFlightForensicsEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flight = &flight.Config{SampleEvery: 1} // capture everything
	cfg.UDPWorkers = 1                          // the repeat meets the cache the first query filled
	srv := startServerCfg(t, cfg, nil)
	ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, srv.RegisterDebug)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	// View tier (first query assembles from the compiled view and seeds the
	// hot cache), then the cached tier, then a view-path NXDOMAIN.
	ask := func(id uint16, name string, timeout time.Duration) {
		t.Helper()
		q := dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA)
		Exchange(srv.UDPAddrActual(), q, false, timeout)
	}
	ask(1, "www.ex.test", time.Second)
	ask(2, "www.ex.test", time.Second)
	ask(3, "nope.ex.test", time.Second)

	// Query of death: the first poison query crashes its handler (the
	// client times out); the retry is refused by the quarantine.
	poison := dnswire.QoDMarkerLabel + ".ex.test"
	ask(4, poison, 300*time.Millisecond)
	resp, err := Exchange(srv.UDPAddrActual(),
		dnswire.NewQuery(5, dnswire.MustName(poison), dnswire.TypeA), false, time.Second)
	if err != nil || resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("quarantine retry: resp=%v err=%v", resp, err)
	}

	// Forensics: each tier's verdict must be reconstructable from the ring.
	var doc flightQueriesDoc
	wantVerdict := func(verdict, suffix string, anomalous bool) {
		t.Helper()
		getJSON(t, ms.Addr(), "/debug/queries?verdict="+verdict, &doc)
		if len(doc.Records) == 0 {
			t.Fatalf("no %s records in /debug/queries", verdict)
		}
		found := false
		for _, r := range doc.Records {
			if strings.Contains(r.QnameSuffix, suffix) && r.Anomalous == anomalous {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s records missing suffix %q (anomalous=%v): %+v",
				verdict, suffix, anomalous, doc.Records)
		}
	}
	wantVerdict("view", "ex.test.", false)
	wantVerdict("cached", "www.ex.test.", false)
	wantVerdict("crashed", dnswire.QoDMarkerLabel, true)
	wantVerdict("quarantined", dnswire.QoDMarkerLabel, true)

	getJSON(t, ms.Addr(), "/debug/queries?rcode=NXDOMAIN", &doc)
	if len(doc.Records) == 0 {
		t.Fatal("NXDOMAIN miss not in the ring")
	}
	if doc.SampleEvery != 1 || doc.Recorded < 5 {
		t.Fatalf("sample_every=%d recorded=%d", doc.SampleEvery, doc.Recorded)
	}

	// The sketches name the traffic: zone suffix and qtype dominate.
	var topk struct {
		Suffixes []struct {
			Key   string `json:"key"`
			Count int    `json:"count"`
		} `json:"suffixes"`
		QTypes []struct {
			Key string `json:"key"`
		} `json:"qtypes"`
	}
	getJSON(t, ms.Addr(), "/debug/topk", &topk)
	foundSuffix := false
	for _, s := range topk.Suffixes {
		if s.Key == "ex.test." && s.Count >= 3 {
			foundSuffix = true
		}
	}
	if !foundSuffix {
		t.Fatalf("top suffixes missing ex.test.: %+v", topk.Suffixes)
	}
	if len(topk.QTypes) == 0 || topk.QTypes[0].Key != "A" {
		t.Fatalf("top qtypes = %+v", topk.QTypes)
	}

	// /debug/qod names the quarantined signature.
	var qodDoc struct {
		Enabled    bool `json:"enabled"`
		Entries    int  `json:"entries"`
		Signatures []struct {
			Suffix string `json:"suffix"`
		} `json:"signatures"`
	}
	getJSON(t, ms.Addr(), "/debug/qod", &qodDoc)
	if !qodDoc.Enabled || qodDoc.Entries == 0 {
		t.Fatalf("qod debug = %+v", qodDoc)
	}
	foundSig := false
	for _, sig := range qodDoc.Signatures {
		if strings.Contains(sig.Suffix, dnswire.QoDMarkerLabel) {
			foundSig = true
		}
	}
	if !foundSig {
		t.Fatalf("quarantine signatures missing the marker: %+v", qodDoc.Signatures)
	}

	// /debug/views shows what is being served.
	var viewsDoc struct {
		ViewBytes int64 `json:"view_bytes"`
		Zones     []struct {
			Origin    string `json:"origin"`
			Serial    uint32 `json:"serial"`
			Records   int    `json:"records"`
			ViewBytes int64  `json:"view_bytes"`
		} `json:"zones"`
	}
	getJSON(t, ms.Addr(), "/debug/views", &viewsDoc)
	if len(viewsDoc.Zones) != 1 || viewsDoc.Zones[0].Origin != "ex.test." ||
		viewsDoc.Zones[0].Serial != 7 || viewsDoc.Zones[0].Records == 0 {
		t.Fatalf("views debug = %+v", viewsDoc)
	}
	// The one hosted zone is held as its compiled view, the whole of the
	// store's view memory.
	if viewsDoc.ViewBytes <= 0 || viewsDoc.Zones[0].ViewBytes != viewsDoc.ViewBytes {
		t.Fatalf("view bytes: store %d, zone %d", viewsDoc.ViewBytes, viewsDoc.Zones[0].ViewBytes)
	}

	// The rollup series landed on /metrics.
	_, body := scrape(t, ms.Addr(), "/metrics")
	if got := metricValue(t, body, obs.MetricViewBytes); int64(got) != viewsDoc.ViewBytes {
		t.Fatalf("%s = %v, /debug/views says %d", obs.MetricViewBytes, got, viewsDoc.ViewBytes)
	}
	for _, sample := range []string{
		obs.MetricFlightZoneRcode + `{rcode="NOERROR",zone="ex.test."}`,
		obs.MetricFlightZoneRcode + `{rcode="NXDOMAIN",zone="ex.test."}`,
	} {
		if metricValue(t, body, sample) < 1 {
			t.Fatalf("rollup series %s not incremented", sample)
		}
	}
}

// TestHandleFlightZeroAlloc pins the acceptance criterion directly: with
// the recorder capturing EVERY query (SampleEvery 1, stricter than the
// shipped 1-in-16), the cached-hit and view-miss handle paths still
// allocate nothing.
func TestHandleFlightZeroAlloc(t *testing.T) {
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	cfg := DefaultConfig()
	cfg.Flight = &flight.Config{SampleEvery: 1}
	srv := New(cfg, nameserver.NewEngine(store), nil)

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	src := netip.MustParseAddrPort("127.0.0.1:5353")

	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	hit, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // seed the hot cache, warm pools and rollups
		if srv.handlePacket(hit, src, false, sc) == nil {
			t.Fatal("no response")
		}
	}
	if got := testing.AllocsPerRun(500, func() {
		srv.handlePacket(hit, src, false, sc)
	}); got != 0 {
		t.Fatalf("cached-hit path allocates %v/op with the recorder on", got)
	}

	// View-miss NXDOMAIN flood shape: a fresh qname every run.
	miss, err := dnswire.NewQuery(1, dnswire.MustName("aaaaaaaaaaaaaaaa.ex.test"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	label := miss[13 : 13+16]
	n := uint64(0)
	stamp := func() {
		v := n
		for j := 0; j < 16; j++ {
			label[j] = "0123456789abcdef"[v&0xF]
			v >>= 4
		}
		n++
	}
	for i := 0; i < 64; i++ {
		stamp()
		srv.handlePacket(miss, src, false, sc)
	}
	if got := testing.AllocsPerRun(500, func() {
		stamp()
		srv.handlePacket(miss, src, false, sc)
	}); got != 0 {
		t.Fatalf("view-miss path allocates %v/op with the recorder on", got)
	}
}

// expositionLine matches one valid Prometheus text-format sample:
// name, optional label block, and a float value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

// assertExpositionValid checks every line of a /metrics body: comment
// lines must be HELP/TYPE, sample lines must parse.
func assertExpositionValid(t *testing.T, body string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("bad exposition line: %q", line)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no samples in exposition")
	}
}

// TestScrapeWhileServing hammers /metrics, /healthz, and the forensics
// endpoints while live queries flow, under -race, and then validates the
// exposition output line by line — concurrent scrape-during-serve is
// exactly how production monitoring hits this server.
func TestScrapeWhileServing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flight = &flight.Config{SampleEvery: 1}
	srv := startServerCfg(t, cfg, nil)
	ms, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, srv.RegisterDebug)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"www.ex.test", "nope.ex.test", "ns1.ex.test"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := dnswire.NewQuery(uint16(w*1000+i), dnswire.MustName(names[i%len(names)]), dnswire.TypeA)
				Exchange(srv.UDPAddrActual(), q, false, time.Second)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/metrics", "/healthz", "/debug/queries", "/debug/topk", "/debug/qod", "/debug/views"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[i%len(paths)]
				code, _ := scrape(t, ms.Addr(), path)
				if code != 200 {
					t.Errorf("GET %s = %d under load", path, code)
					return
				}
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Final scrape: every non-comment line must be format-valid, and the
	// flight series must be present with sane values.
	code, body := scrape(t, ms.Addr(), "/metrics")
	if code != 200 {
		t.Fatalf("final scrape = %d", code)
	}
	assertExpositionValid(t, body)
	if metricValue(t, body, obs.MetricFlightZoneRcode+`{rcode="NOERROR",zone="ex.test."}`) < 1 {
		t.Fatal("rollup series missing after load")
	}
	if metricValue(t, body, obs.MetricFlightSampleEvery) != 1 {
		t.Fatal("sample-every gauge wrong")
	}
	recorded := metricValue(t, body, obs.MetricFlightRecordsTotal+`{reason="sampled"}`)
	if recorded < 1 {
		t.Fatalf("sampled records = %v", recorded)
	}
	if code, health := scrape(t, ms.Addr(), "/healthz"); code != 200 || !strings.HasPrefix(health, "ok") {
		t.Fatalf("healthz after load = %d %q", code, health)
	}
}
