package propagate_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"akamaidns/internal/backoff"
	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
	"akamaidns/internal/zone"
)

// TestServeUnderChurn is the serve-under-churn harness: a UDP nameserver
// and ctlplane's HTTP API on loopback take changelist POSTs while query
// workers hammer the same socket, the regime in which tenants change zones
// while the platform answers at full rate (§3.2) and each change must
// reach every edge's socket (§4.2.2). Each case asserts that
//
//   - an untouched control zone answers byte-identically before, during
//     and after churn;
//   - an apply batch costs at most one router rebuild;
//   - an applied change costs at most one router-shard clone;
//   - every change is applied;
//   - the POST→UDP-visible lag p99 stays within the case's bound;
//   - with pull edges, every edge converges to the controller in serials
//     and ZoneSum.
//
// -v logs the lag percentiles and each edge's pull counters.
func TestServeUnderChurn(t *testing.T) {
	for _, c := range churnCases {
		t.Run(c.name, func(t *testing.T) { runChurn(t, c) })
	}
}

// churnSeed seeds the query interleave, the links and the pullers.
const churnSeed = 7

type churnCase struct {
	name                           string
	zones, batch, changes, workers int
	// posters POST concurrently, each over its own slice of the zones;
	// pipelined submits through the validate/commit pipeline.
	posters   int
	pipelined bool
	// pace is each poster's sleep between POSTs, CPU left to the workers.
	pace     time.Duration
	lagBound time.Duration
	// edges pull from the controller through links with these faults.
	edges  int
	faults propagate.Faults
}

var churnCases = []churnCase{
	{name: "serial", zones: 256, batch: 128, changes: 20000, workers: 2, posters: 1,
		pace: time.Millisecond, lagBound: 250 * time.Millisecond},
	// Four posters keep the pipeline's revalidation fast path busy while
	// the shard-clone bound holds applies to O(changed zones) at an
	// elevated zone count.
	{name: "sharded", zones: 8192, batch: 256, changes: 20000, workers: 2, posters: 4,
		pipelined: true, lagBound: 2 * time.Second},
	// Edges behind lossy, corrupting, duplicating links: a corrupt transfer
	// is rejected by checksum before install, never served.
	{name: "pull", zones: 128, batch: 32, changes: 1500, workers: 1, posters: 1,
		lagBound: time.Second, edges: 4, faults: propagate.Faults{
			Delay: 2 * time.Millisecond, DelayJitter: 3 * time.Millisecond,
			DropRate: 0.1, CorruptRate: 0.02, DuplicateRate: 0.05,
		}},
}

const (
	// The edges poll and time out far sooner than the puller's wide-area
	// constants: loopback round trips take milliseconds, and an edge's lag
	// should show its link's loss, not the harness waiting out timers.
	edgeInterval = 200 * time.Millisecond
	edgeTimeout  = 100 * time.Millisecond
	// edgePatience bounds poster 0's wait for each batch's probe on every
	// edge's socket. The wait paces churn to the fleet: without it the
	// changes land in a fraction of a second and the edges bootstrap by
	// AXFR instead of pulling deltas.
	edgePatience = 15 * time.Second
	// convergeDeadline bounds the edges' catch-up once churn stops.
	convergeDeadline = 30 * time.Second
	// probePatience bounds the wait for a batch's probe on the controller.
	probePatience = 2 * time.Second
	// seedChunk is ctlplane's limit on zones per changelist.
	seedChunk = 4096
)

var edgeBackoff = backoff.Policy{Base: 25 * time.Millisecond, Max: 250 * time.Millisecond, Factor: 2, Jitter: 0.5}

const controlOrigin = "control.churn.test"

const controlText = `
$TTL 300
@    IN SOA ns1 host ( 1 3600 600 604800 30 )
www  IN A 192.0.2.1
api  IN A 192.0.2.2
txt  IN TXT "untouched"
`

func churnOrigin(i int) string { return fmt.Sprintf("z%04d.churn.test", i) }

// churnText renders one churned zone. Its www address carries the serial
// in its low bytes, so a UDP probe tells which version answered.
func churnText(serial uint32) string {
	return fmt.Sprintf(`
$TTL 300
@    IN SOA ns1 host ( %d 3600 600 604800 30 )
www  IN A 10.0.%d.%d
api  IN A 192.0.2.200
`, serial, byte(serial>>8), byte(serial))
}

// zoneEntry is one zone of a POST /ctl/changelist body.
type zoneEntry struct {
	Origin string `json:"origin"`
	Zone   string `json:"zone"`
}

// churnEdge is one edge machine: its own store, a UDP server over it, and
// a puller fed through a faulty link. Its lags run from a batch's POST to
// the new address answering on its own socket.
type churnEdge struct {
	id     string
	store  *zone.Store
	pull   *propagate.Puller
	conn   net.Conn
	buf    []byte
	lags   []time.Duration
	misses int
}

func runChurn(t *testing.T, c churnCase) {
	store := zone.NewStore()
	srv := startUDP(t, store)
	ctlCfg := ctlplane.Config{Registry: srv.Reg}
	var edges []*churnEdge
	if c.edges > 0 {
		// The controller records every commit into the edges' IXFR
		// history, and its publish hook pokes their pullers, so changes
		// propagate at notify speed.
		hist := zone.NewHistory(64)
		src := propagate.NewSource(store, hist)
		clock := propagate.NewWallClock()
		for i := range c.edges {
			e := &churnEdge{id: fmt.Sprintf("edge%d", i), store: zone.NewStore(), buf: make([]byte, 4096)}
			e.conn = dial(t, startUDP(t, e.store).UDPAddrActual())
			link := propagate.NewLink(clock, src, churnSeed+int64(i)*7919)
			link.SetFaults(c.faults)
			e.pull = propagate.NewTimed(propagate.Config{
				ID: e.id, Clock: clock, Transport: link, Store: e.store, Seed: churnSeed + int64(i),
			}, edgeInterval, edgeTimeout, edgeBackoff)
			e.pull.Start()
			t.Cleanup(e.pull.Stop)
			edges = append(edges, e)
		}
		ctlCfg.History = hist
		ctlCfg.Publish = func(dnswire.Name, uint32) {
			for _, e := range edges {
				e.pull.Poke()
			}
		}
	}
	ctl := ctlplane.New(store, ctlCfg)
	url := "/ctl/changelist"
	if c.pipelined {
		pl := ctlplane.NewPipeline(ctl, ctlplane.PipelineConfig{})
		t.Cleanup(pl.Close)
		url += "?mode=pipeline"
	}
	api, err := obs.ServeWith("127.0.0.1:0", srv.Reg, srv.Healthy, ctl.RegisterHTTP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { api.Close() })
	base := "http://" + api.Addr()
	url = base + url

	// Every zone at serial 1 and the control zone, applied in chunks.
	seed := []zoneEntry{{controlOrigin, controlText}}
	for i := range c.zones {
		seed = append(seed, zoneEntry{churnOrigin(i), churnText(1)})
	}
	for len(seed) > 0 {
		n := min(len(seed), seedChunk)
		if err := postChangelist(base+"/ctl/changelist", seed[:n]); err != nil {
			t.Fatalf("seed: %v", err)
		}
		seed = seed[n:]
	}
	rebuilds0, clones0 := store.Gen(), store.ShardRebuilds()
	udp := srv.UDPAddrActual()
	controlQ := packQuery(0x4242, "www."+controlOrigin)
	baseline := queryOnce(t, udp, controlQ)

	// Query workers: open loop over the churned zones, with the control
	// zone 1 query in 16, byte-compared with the baseline.
	var (
		stop                                   atomic.Bool
		answered, timeouts, checks, mismatches atomic.Uint64
		wg                                     sync.WaitGroup
	)
	for w := range c.workers {
		conn := dial(t, udp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(churnSeed + int64(w)))
			buf := make([]byte, 4096)
			for !stop.Load() {
				q, control := controlQ, rng.Intn(16) == 0
				if !control {
					q = packQuery(uint16(rng.Intn(0xffff)+1), "www."+churnOrigin(rng.Intn(c.zones)))
				}
				resp, err := exchange(conn, q, buf, 200*time.Millisecond)
				if err != nil {
					timeouts.Add(1)
					continue
				}
				answered.Add(1)
				if control {
					checks.Add(1)
					if !bytes.Equal(resp, baseline) {
						mismatches.Add(1)
					}
				}
			}
		}()
	}

	// Posters: each rotates a batch window over its own zones, POSTs the
	// next serial of each, and probes the batch's first zone until its new
	// address answers over UDP. A probe that never answers counts as a
	// sample of its whole wait.
	type posterResult struct {
		applied, batches, misses int
		lags                     []time.Duration
	}
	results := make([]posterResult, c.posters)
	serials := make([]uint32, c.zones) // posters touch disjoint ranges
	for i := range serials {
		serials[i] = 1
	}
	per, quota := c.zones/c.posters, c.changes/c.posters
	start := time.Now()
	var pwg sync.WaitGroup
	for p := range c.posters {
		lo, hi, q := p*per, (p+1)*per, quota
		if p == c.posters-1 {
			hi, q = c.zones, c.changes-quota*(c.posters-1)
		}
		conn := dial(t, udp)
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			r, buf, next := &results[p], make([]byte, 4096), lo
			for r.applied < q {
				n := min(c.batch, q-r.applied)
				var batch []zoneEntry
				for k := range n {
					i := lo + (next-lo+k)%(hi-lo)
					serials[i]++
					batch = append(batch, zoneEntry{churnOrigin(i), churnText(serials[i])})
				}
				probe, serial := churnOrigin(next), serials[next]
				next = lo + (next-lo+n)%(hi-lo)
				t0 := time.Now()
				if err := postChangelist(url, batch); err != nil {
					t.Errorf("poster %d batch %d: %v", p, r.batches, err)
					return
				}
				r.applied += n
				r.batches++
				lag, ok := awaitSerial(conn, buf, probe, serial, t0, probePatience)
				r.lags = append(r.lags, lag)
				if !ok {
					r.misses++
				}
				// The same batch must answer on every edge's own socket.
				if p == 0 && len(edges) > 0 {
					sampleEdges(edges, probe, serial, t0)
				}
				time.Sleep(c.pace)
			}
		}()
	}
	pwg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	checks.Add(1)
	if !bytes.Equal(queryOnce(t, udp, controlQ), baseline) {
		mismatches.Add(1)
	}

	var applied, batches, misses int
	var lags []time.Duration
	for _, r := range results {
		applied, batches, misses = applied+r.applied, batches+r.batches, misses+r.misses
		lags = append(lags, r.lags...)
	}
	rebuilds, clones := store.Gen()-rebuilds0, store.ShardRebuilds()-clones0
	p50, p90, p99, worst := percentiles(lags)
	t.Logf("%d changes in %d batches over %.1fs; %d answered (%.0f qps), %d timeouts",
		applied, batches, elapsed.Seconds(), answered.Load(), float64(answered.Load())/elapsed.Seconds(), timeouts.Load())
	t.Logf("control checks %d (mismatch %d), rebuilds %d/%d batches (%d shard clones), lag p50/p90/p99/max = %.1f/%.1f/%.1f/%.1f ms (%d misses)",
		checks.Load(), mismatches.Load(), rebuilds, batches, clones, p50, p90, p99, worst, misses)

	if m := mismatches.Load(); m > 0 {
		t.Errorf("control zone drifted: %d of %d checks differ from the baseline", m, checks.Load())
	}
	if rebuilds > uint64(batches) {
		t.Errorf("%d router rebuilds for %d apply batches", rebuilds, batches)
	}
	// A changed zone dirties the one router shard its origin hashes into;
	// more clones than changes means republishes are not incremental.
	if clones > uint64(applied) {
		t.Errorf("%d shard clones for %d applied changes", clones, applied)
	}
	if applied != c.changes {
		t.Errorf("%d of %d changes applied", applied, c.changes)
	}
	if bound := ms(c.lagBound); p99 > bound {
		t.Errorf("lag p99 %.1f ms over the %.0f ms bound", p99, bound)
	}

	if len(edges) == 0 {
		return
	}
	var all []time.Duration
	for _, e := range edges {
		all = append(all, e.lags...)
	}
	p50, p90, p99, worst = percentiles(all)
	t.Logf("%d edges (drop %.2f corrupt %.2f dup %.2f), lag p50/p90/p99/max = %.1f/%.1f/%.1f/%.1f ms over %d samples",
		len(edges), c.faults.DropRate, c.faults.CorruptRate, c.faults.DuplicateRate, p50, p90, p99, worst, len(all))
	for _, e := range edges {
		p50, _, p99, _ := percentiles(e.lags)
		st := e.pull.Status()
		t.Logf("%s lag p50/p99 = %.1f/%.1f ms (%d samples, %d misses); cycles=%d fail=%d retry=%d delta=%d full=%d resync=%d corrupt=%d timeout=%d",
			e.id, p50, p99, len(e.lags), e.misses,
			st.Cycles, st.Failures, st.Retries, st.DeltaPulls, st.FullPulls, st.Resyncs, st.CorruptRejected, st.Timeouts)
	}
	// With churn stopped, every edge must catch up to the controller in
	// serials and content.
	until := time.Now().Add(convergeDeadline)
	for _, e := range edges {
		for {
			desc := storeMismatch(store, e.store)
			if desc == "" {
				break
			}
			if time.Now().After(until) {
				t.Errorf("%s did not converge: %s (%s)", e.id, desc, e.pull)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// startUDP serves store on a loopback UDP socket until the test ends.
func startUDP(t *testing.T, store *zone.Store) *netserve.Server {
	t.Helper()
	cfg := netserve.DefaultConfig()
	cfg.UDPAddr, cfg.TCPAddr = "127.0.0.1:0", ""
	srv := netserve.New(cfg, nameserver.NewEngine(store), nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// The client's timeout is far above any case's apply time.
var httpClient = &http.Client{Timeout: time.Minute}

// postChangelist applies one changelist through the HTTP API.
func postChangelist(url string, zones []zoneEntry) error {
	body, err := json.Marshal(struct {
		Zones []zoneEntry `json:"zones"`
	}{zones})
	if err != nil {
		return err
	}
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var plan struct {
		Status     string
		Rejections []struct{ Reason, Detail string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		return err
	}
	if plan.Status != "applied" {
		return fmt.Errorf("status %q, rejections %+v", plan.Status, plan.Rejections)
	}
	return nil
}

// packQuery packs an A query; the names here are fixed and valid, so it
// cannot fail.
func packQuery(id uint16, name string) []byte {
	wire, err := dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA).Pack()
	if err != nil {
		panic(err)
	}
	return wire
}

// exchange sends q on conn and returns the response with q's ID, a view
// into buf valid until the next call. Late answers to earlier queries are
// skipped.
func exchange(conn net.Conn, q, buf []byte, timeout time.Duration) ([]byte, error) {
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
	}
}

func queryOnce(t *testing.T, addr string, q []byte) []byte {
	t.Helper()
	resp, err := exchange(dial(t, addr), q, make([]byte, 4096), time.Second)
	if err != nil {
		t.Fatalf("control query: %v", err)
	}
	return resp
}

// awaitSerial polls www.<origin> until serial's address answers and
// returns the time since t0, and whether it answered within patience.
// Patience runs from the call, not from t0, so a slow POST still yields a
// sample.
func awaitSerial(conn net.Conn, buf []byte, origin string, serial uint32, t0 time.Time, patience time.Duration) (time.Duration, bool) {
	want := [4]byte{10, 0, byte(serial >> 8), byte(serial)}
	q := packQuery(uint16(serial&0x7fff)|0x8000, "www."+origin)
	for until := time.Now().Add(patience); time.Now().Before(until); {
		resp, err := exchange(conn, q, buf, 100*time.Millisecond)
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
	return time.Since(t0), false
}

// sampleEdges waits, on every edge at once, for the batch POSTed at t0 to
// answer on the edge's own socket.
func sampleEdges(edges []*churnEdge, origin string, serial uint32, t0 time.Time) {
	var wg sync.WaitGroup
	for _, e := range edges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lag, ok := awaitSerial(e.conn, e.buf, origin, serial, t0, edgePatience); ok {
				e.lags = append(e.lags, lag)
			} else {
				e.misses++
			}
		}()
	}
	wg.Wait()
}

// storeMismatch describes the first difference between the controller's
// store and an edge's, or returns "" when they hold the same zones at the
// same serials with the same content.
func storeMismatch(ctl, edge *zone.Store) string {
	want, got := ctl.Serials(), edge.Serials()
	if len(want) != len(got) {
		return fmt.Sprintf("%d zones, controller has %d", len(got), len(want))
	}
	for origin, serial := range want {
		if s, ok := got[origin]; !ok {
			return fmt.Sprintf("missing zone %s", origin)
		} else if s != serial {
			return fmt.Sprintf("zone %s at serial %d, controller at %d", origin, s, serial)
		}
		if propagate.ZoneSum(edge.Get(origin)) != propagate.ZoneSum(ctl.Get(origin)) {
			return fmt.Sprintf("zone %s serial %d content differs", origin, serial)
		}
	}
	return ""
}

// percentiles sorts lags and returns p50, p90, p99 and the maximum in ms.
func percentiles(lags []time.Duration) (p50, p90, p99, max float64) {
	if len(lags) == 0 {
		return
	}
	slices.Sort(lags)
	at := func(q float64) float64 { return ms(lags[int(q*float64(len(lags)-1))]) }
	return at(0.50), at(0.90), at(0.99), ms(lags[len(lags)-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
