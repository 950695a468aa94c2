package main

// child.go is the system under test: the benchmark re-executes its own
// binary with -child, and that process builds a real netserve.Server (plus
// the filter pipeline or the control plane + pull-fed edge store when the
// parent asks for them) through public constructors only. It is told which
// subsystems to assemble and is handed zones as master-file text; it never
// sees the seed or a workload name. A separate process keeps the load
// generator's GC and scheduling out of the server's numbers and gives an
// exact getrusage CPU figure per answer.
//
// Protocol: JSON lines. Parent -> child on stdin: one {"config"}, many
// {"zone"}, then {"cmd":"serve"}, any number of {"cmd":"stats"}, finally
// {"cmd":"quit"} (stdin EOF also quits, so an orphaned child never
// lingers). Child -> parent on stdout: one reply line per cmd.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// childConfig selects the subsystems the child assembles.
type childConfig struct {
	// Workers is both UDPWorkers and GOMAXPROCS.
	Workers int `json:"workers"`
	// Filters, when set, attaches filters.Pipeline(RateLimit, NXDomain,
	// Allowlist) with the default Smax.
	Filters *filterConfig `json:"filters,omitempty"`
	// Edge serves from an edge store fed by a propagate.Puller (Direct
	// transport, pullDelay) from a controller store that a ctlplane
	// Controller+Pipeline writes.
	Edge bool `json:"edge,omitempty"`
}

// pullDelay is the one-way delay of the controller-to-edge transport.
const pullDelay = 2 * time.Millisecond

// filterConfig is the history a production pipeline would have learned.
type filterConfig struct {
	// Allow lists historically-known resolver addresses.
	Allow []string `json:"allow"`
	// Learn is the typical query rate per known resolver.
	Learn map[string]float64 `json:"learn"`
	// NXHot lists zones already marked hot by the NXDOMAIN filter (the
	// socket path has no response feedback to learn them from).
	NXHot []string `json:"nx_hot"`
}

type zoneMsg struct {
	Origin string `json:"origin"`
	Text   string `json:"text"`
}

type childMsg struct {
	Config *childConfig `json:"config,omitempty"`
	Zone   *zoneMsg     `json:"zone,omitempty"`
	Cmd    string       `json:"cmd,omitempty"`
}

// childReady is the reply to "serve".
type childReady struct {
	UDP string `json:"udp"`
	Ctl string `json:"ctl,omitempty"` // control-plane HTTP address (edge only)
	// ParseS and CompileS split the load time: master-file parsing, then
	// compiling every zone's view.
	ParseS   float64 `json:"parse_s"`
	CompileS float64 `json:"compile_s"`
}

// childStats is the reply to "stats": peak RSS, every series of the
// server's obs registry, and the CPU sampler's ticks.
type childStats struct {
	MaxRSSKB int64              `json:"maxrss_kb"`
	Obs      map[string]float64 `json:"obs"`
	// Samples is the sampler's series since the previous stats reply.
	Samples []cpuSample `json:"samples"`
}

// sampleEvery is the period of the child's own CPU sampler.
const sampleEvery = 100 * time.Millisecond

// cpuSample is one tick of the child's own sampler: cumulative CPU and
// datagrams received, every sampleEvery. Sampling in the child costs one
// getrusage per tick and no traffic on the control pipe during a window.
type cpuSample struct {
	WallNs   int64  `json:"t"`
	CPUUs    int64  `json:"cpu"` // utime + stime
	Received uint64 `json:"rx"`
}

// flattenObs renders a registry snapshot as name{labels} -> value, with
// histograms contributing name_count{labels} and name_sum{labels}.
func flattenObs(snap obs.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(snap))
	for _, p := range snap {
		if p.Kind == obs.KindHistogram {
			out[p.Name+"_count"+p.Labels] = float64(p.Count)
			out[p.Name+"_sum"+p.Labels] = p.Sum
			continue
		}
		out[p.Name+p.Labels] = p.Value
	}
	return out
}

// loadStore parses every zone into a fresh store in one batch.
func loadStore(zones []zoneMsg) (*zone.Store, error) {
	parsed := make([]*zone.Zone, 0, len(zones))
	for _, zm := range zones {
		origin, err := dnswire.ParseName(zm.Origin)
		if err != nil {
			return nil, fmt.Errorf("zone origin %q: %w", zm.Origin, err)
		}
		z, err := zone.ParseMaster(strings.NewReader(zm.Text), origin)
		if err != nil {
			return nil, fmt.Errorf("zone %s: %w", zm.Origin, err)
		}
		parsed = append(parsed, z)
	}
	return storeOf(parsed), nil
}

// storeOf installs the zones into a fresh store in one batch.
func storeOf(zones []*zone.Zone) *zone.Store {
	store := zone.NewStore()
	store.Update(func(tx *zone.Tx) {
		for _, z := range zones {
			tx.Put(z)
		}
	})
	return store
}

// transferStore builds a second store holding a full-transfer copy of
// every zone in src.
func transferStore(src *zone.Store) (*zone.Store, error) {
	origins := src.Origins()
	copies := make([]*zone.Zone, 0, len(origins))
	for _, origin := range origins {
		z, err := zone.FromTransfer(origin, src.Transfer(origin))
		if err != nil {
			return nil, fmt.Errorf("transfer %s: %w", origin, err)
		}
		copies = append(copies, z)
	}
	return storeOf(copies), nil
}

// compileViews builds every zone's compiled view so no query pays for it.
func compileViews(store *zone.Store) {
	for _, origin := range store.Origins() {
		store.Get(origin).View()
	}
}

// sut is the assembled system under test.
type sut struct {
	srv *netserve.Server

	sampleMu sync.Mutex
	samples  []cpuSample
	stopSamp chan struct{}
	sampDone chan struct{}

	ctlSrv *obs.HTTPServer
	pl     *ctlplane.Pipeline
	pull   *propagate.Puller
	ready  childReady
}

// sample runs until close, appending one cpuSample per sampleEvery.
func (s *sut) sample() {
	defer close(s.sampDone)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSamp:
			return
		case <-tick.C:
			sm := cpuSample{WallNs: time.Now().UnixNano(), CPUUs: processCPU(), Received: s.srv.Metrics.UDPQueries.Load()}
			s.sampleMu.Lock()
			s.samples = append(s.samples, sm)
			s.sampleMu.Unlock()
		}
	}
}

func (s *sut) close() {
	if s.stopSamp != nil {
		close(s.stopSamp)
		<-s.sampDone
	}
	if s.pull != nil {
		s.pull.Stop()
	}
	if s.ctlSrv != nil {
		s.ctlSrv.Close()
	}
	if s.pl != nil {
		s.pl.Close()
	}
	s.srv.Close()
}

// buildPipeline assembles RateLimit + NXDomain + Allowlist over store with
// the learned history in fc.
func buildPipeline(store *zone.Store, fc *filterConfig) (*filters.Pipeline, error) {
	rl := filters.NewRateLimit()
	for r, qps := range fc.Learn {
		rl.Learn(r, qps)
	}
	nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
	for _, o := range fc.NXHot {
		origin, err := dnswire.ParseName(o)
		if err != nil {
			return nil, fmt.Errorf("nx-hot zone %q: %w", o, err)
		}
		// Threshold NXDOMAIN observations inside one window mark the zone
		// hot and build its valid-hostname tree.
		for i := 0; i < nx.Threshold; i++ {
			nx.ObserveResponse(origin, true, 0)
		}
	}
	al := filters.NewAllowlist()
	al.Add(fc.Allow...)
	al.SetActive(true)
	return filters.NewPipeline(rl, nx, al), nil
}

// buildSUT loads the zones and starts the server the config describes.
func buildSUT(cfg childConfig, zones []zoneMsg) (*sut, error) {
	t0 := time.Now()
	serveStore, err := loadStore(zones)
	if err != nil {
		return nil, err
	}
	var ctlStore *zone.Store
	if cfg.Edge {
		// The parsed store becomes the controller's; the edge starts as a
		// full transfer of it (a machine's initial AXFR sync) and from then
		// on is kept current by the pull loop alone.
		ctlStore = serveStore
		if serveStore, err = transferStore(ctlStore); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	compileViews(serveStore)
	t2 := time.Now()

	s := &sut{}
	s.ready.ParseS = t1.Sub(t0).Seconds()
	s.ready.CompileS = t2.Sub(t1).Seconds()

	var pipe *filters.Pipeline
	if cfg.Filters != nil {
		if pipe, err = buildPipeline(serveStore, cfg.Filters); err != nil {
			return nil, err
		}
	}
	ncfg := netserve.DefaultConfig()
	ncfg.UDPAddr = "127.0.0.1:0"
	ncfg.TCPAddr = ""
	ncfg.UDPWorkers = cfg.Workers
	s.srv = netserve.New(ncfg, nameserver.NewEngine(serveStore), pipe)

	if cfg.Edge {
		hist := zone.NewHistory(64)
		src := propagate.NewSource(ctlStore, hist)
		clock := propagate.NewWallClock()
		synced := make(chan struct{}, 1) // first-sync signal only; later syncs drop
		s.pull = propagate.New(propagate.Config{
			ID:        "edge",
			Clock:     clock,
			Transport: propagate.NewDirect(clock, src, pullDelay),
			Store:     serveStore,
			Obs:       s.srv.Reg,
			OnSync: func(simtime.Time) {
				select {
				case synced <- struct{}{}:
				default:
				}
			},
		})
		ctl := ctlplane.New(ctlStore, ctlplane.Config{
			Registry: s.srv.Reg,
			History:  hist,
			Publish:  func(dnswire.Name, uint32) { s.pull.Poke() },
		})
		s.pl = ctlplane.NewPipeline(ctl, ctlplane.PipelineConfig{})
		if s.ctlSrv, err = obs.ServeWith("127.0.0.1:0", s.srv.Reg, s.srv.Healthy, func(mux *http.ServeMux) {
			ctl.RegisterHTTP(mux)
		}); err != nil {
			return nil, fmt.Errorf("control listener: %w", err)
		}
		s.ready.Ctl = s.ctlSrv.Addr()
		// The first cycle compares catalogs (nothing to pull) and seeds
		// the IXFR history with every zone's loaded version.
		s.pull.Start()
		s.pull.Poke()
		select {
		case <-synced:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("edge store did not sync with the controller")
		}
	}
	if err := s.srv.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s.ready.UDP = s.srv.UDPAddrActual()
	// Start serving from a collected heap, as testing.B does before a
	// benchmark: loading leaves hundreds of MB of garbage, and whether its
	// collection happens to land inside a short window is a coin flip that
	// moved every metric by 15-25% between runs.
	runtime.GC()
	s.stopSamp, s.sampDone = make(chan struct{}), make(chan struct{})
	go s.sample()
	return s, nil
}

func (s *sut) stats() childStats {
	s.sampleMu.Lock()
	samples := s.samples
	s.samples = nil
	s.sampleMu.Unlock()
	return childStats{
		MaxRSSKB: peakRSSKB(),
		Obs:      flattenObs(s.srv.Reg.Snapshot()),
		Samples:  samples,
	}
}

// childMain runs the child protocol over in/out.
func childMain(in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(bufio.NewReaderSize(in, 1<<20))
	enc := json.NewEncoder(out)
	var (
		cfg   childConfig
		zones []zoneMsg
		s     *sut
	)
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for {
		var m childMsg
		if err := dec.Decode(&m); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("decode parent message: %w", err)
		}
		switch {
		case m.Config != nil:
			cfg = *m.Config
			if cfg.Workers < 1 {
				cfg.Workers = 1
			}
			runtime.GOMAXPROCS(cfg.Workers)
		case m.Zone != nil:
			zones = append(zones, *m.Zone)
		case m.Cmd == "serve":
			var err error
			if s, err = buildSUT(cfg, zones); err != nil {
				return err
			}
			zones = nil
			if err := enc.Encode(s.ready); err != nil {
				return err
			}
		case m.Cmd == "stats":
			if s == nil {
				return fmt.Errorf("stats before serve")
			}
			if err := enc.Encode(s.stats()); err != nil {
				return err
			}
		case m.Cmd == "quit":
			return nil
		default:
			return fmt.Errorf("unknown parent message %+v", m)
		}
	}
}

func runChild() {
	if err := childMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
}
