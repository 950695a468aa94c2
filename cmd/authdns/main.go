// Command authdns is the authoritative DNS server over real UDP and TCP
// sockets: the same zone store, lookup engine, and (optionally) scoring
// pipeline the simulated platform runs, behind the standard wire protocol.
//
// Usage:
//
//	authdns -zone ex.test=ex.zone -zone other.test=other.zone \
//	        -udp 127.0.0.1:5300 -tcp 127.0.0.1:5300
//
// Zones use RFC 1035 master-file syntax. AXFR is served over TCP unless
// -no-axfr is set. -filters enables the §4.3.3 scoring pipeline with the
// NXDOMAIN filter armed. -metrics-addr serves Prometheus-text /metrics and
// /healthz (Figure 5's on-machine monitoring view).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"akamaidns/internal/ctlplane"
	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/flight"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netserve"
	"akamaidns/internal/obs"
	"akamaidns/internal/propagate"
	"akamaidns/internal/zone"
)

type zoneFlags []string

func (z *zoneFlags) String() string     { return strings.Join(*z, ",") }
func (z *zoneFlags) Set(s string) error { *z = append(*z, s); return nil }

func main() {
	var zones, secondaries zoneFlags
	flag.Var(&zones, "zone", "origin=path of a master-file zone (repeatable)")
	flag.Var(&secondaries, "secondary", "origin=primary-tcp-addr to replicate via SOA refresh + AXFR (repeatable)")
	udp := flag.String("udp", "127.0.0.1:5300", "UDP listen address ('' disables)")
	tcp := flag.String("tcp", "127.0.0.1:5300", "TCP listen address ('' disables)")
	udpWorkers := flag.Int("udp-workers", 0, "parallel UDP read loops (0 = GOMAXPROCS); SO_REUSEPORT sockets where available")
	udpRcvbuf := flag.Int("udp-rcvbuf", 0, "SO_RCVBUF bytes per UDP listener, clamped by net.core.rmem_max (0 = 4MiB; negative keeps the OS default)")
	hotCache := flag.Int("hot-cache", 0, "packed-response hot cache entries per UDP worker (0 = default)")
	noAXFR := flag.Bool("no-axfr", false, "refuse zone transfers")
	withFilters := flag.Bool("filters", false, "enable the query scoring pipeline")
	cookies := flag.Bool("cookies", false, "enable DNS Cookies (RFC 7873)")
	requireCookies := flag.Bool("require-cookies", false, "refuse UDP queries without a valid server cookie")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus-text /metrics and /healthz on this address ('' disables)")
	maxInflight := flag.Int("max-inflight", 0, "overload ladder in-flight handler ceiling (0 disables shedding)")
	watchdog := flag.Bool("watchdog", true, "run the monitoring agent: self-suspend on panic/malformed storms (flips /healthz to 503)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "grace period for in-flight queries on SIGTERM before sockets are force-closed")
	flightSample := flag.Int("flight-sample", 0, "head sampling: 1-in-N queries stamp the stage histograms and are captured by the flight recorder, anomalies always (0 = default 16, negative disables the recorder)")
	withCtl := flag.Bool("ctlplane", false, "mount the zone control-plane changelist API (/ctl/...) on the debug/metrics listener")
	debugAddr := flag.String("debug-addr", "", "serve the /debug forensics endpoints on a separate address ('' = ride the metrics listener)")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof on the debug/metrics listener")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("authdns"))
		return
	}

	if len(zones) == 0 && len(secondaries) == 0 {
		fmt.Fprintln(os.Stderr, "authdns: at least one -zone origin=path or -secondary origin=addr is required")
		os.Exit(2)
	}
	if *withCtl && *metricsAddr == "" && *debugAddr == "" {
		fmt.Fprintln(os.Stderr, "authdns: -ctlplane needs -metrics-addr or -debug-addr to mount the /ctl API")
		os.Exit(2)
	}
	store := zone.NewStore()
	open := func(path string) (io.ReadCloser, error) { return os.Open(path) }
	if err := netserve.LoadZonesInto(store, zones, open); err != nil {
		fmt.Fprintln(os.Stderr, "authdns:", err)
		os.Exit(1)
	}
	eng := nameserver.NewEngine(store)

	var secs []*netserve.Secondary
	for _, spec := range secondaries {
		eq := strings.IndexByte(spec, '=')
		if eq < 0 {
			fmt.Fprintf(os.Stderr, "authdns: -secondary %q needs origin=primary-addr\n", spec)
			os.Exit(2)
		}
		origin, err := dnswire.ParseName(spec[:eq])
		if err != nil {
			fmt.Fprintln(os.Stderr, "authdns:", err)
			os.Exit(1)
		}
		secs = append(secs, netserve.NewSecondary(store, origin, spec[eq+1:]))
	}

	var pipe *filters.Pipeline
	if *withFilters {
		nx := filters.NewNXDomain(nameserver.StoreZoneInfo{Store: store}, filters.PerHotZone)
		rl := filters.NewRateLimit()
		pipe = filters.NewPipeline(rl, nx)
	}

	cfg := netserve.DefaultConfig()
	cfg.UDPAddr = *udp
	cfg.TCPAddr = *tcp
	cfg.UDPWorkers = *udpWorkers
	cfg.UDPReadBuffer = *udpRcvbuf
	cfg.HotCacheSize = *hotCache
	cfg.AllowTransfer = !*noAXFR
	cfg.Cookies = *cookies || *requireCookies
	cfg.RequireCookies = *requireCookies
	cfg.CookieSecret = uint64(os.Getpid())*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	cfg.MaxInflight = *maxInflight
	if *flightSample < 0 {
		cfg.Flight = nil
	} else if *flightSample > 0 {
		cfg.Flight = &flight.Config{SampleEvery: *flightSample}
	}
	srv := netserve.New(cfg, eng, pipe)
	obs.RegisterBuildInfo(srv.Reg)
	// IXFR history: record the loaded version of every zone so secondaries
	// presenting our serial get the cheap "up to date" answer.
	srv.History = zone.NewHistory(8)
	for _, origin := range store.Origins() {
		srv.History.Record(store.Get(origin))
	}
	// The zone control plane shares the server's registry (its metrics land
	// in /metrics) and IXFR history, so applied changelists become IXFR
	// deltas secondaries can pull incrementally.
	var ctl *ctlplane.Controller
	if *withCtl {
		ctl = ctlplane.New(store, ctlplane.Config{
			Registry: srv.Reg,
			History:  srv.History,
		})
		// Pipelined apply path: POST /ctl/changelist?mode=pipeline overlaps
		// validation of changelist N+1 with the commit of N. The stage
		// goroutines live for the process; the serial mode keeps working.
		pl := ctlplane.NewPipeline(ctl, ctlplane.PipelineConfig{})
		defer pl.Close()
	}
	if len(secs) > 0 {
		srv.OnNotify = func(origin dnswire.Name) {
			for _, s := range secs {
				if s.Origin == origin {
					s.Notify()
				}
			}
		}
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "authdns:", err)
		os.Exit(1)
	}
	// The §4.2.1 monitoring agent is the one authority that suspends the
	// machine: it sweeps the server's storm probe once a second.
	if *watchdog {
		agent := monitor.NewAgent(propagate.NewWallClock(), monitor.DefaultAgentConfig("authdns"), srv, nil)
		agent.AddProbe(srv.StormProbe())
		agent.Start()
		defer agent.Stop()
	}
	for _, s := range secs {
		s.Start()
		fmt.Printf("authdns: secondary for %s from %s\n", s.Origin, s.Primary)
	}
	for _, origin := range store.Origins() {
		fmt.Printf("authdns: serving zone %s (%d records)\n", origin, store.Get(origin).NumRecords())
	}
	if a := srv.UDPAddrActual(); a != "" {
		fmt.Printf("authdns: udp %s\n", a)
	}
	if a := srv.TCPAddrActual(); a != "" {
		fmt.Printf("authdns: tcp %s\n", a)
	}
	// The forensics mount: /debug/queries, /debug/topk, /debug/qod,
	// /debug/views, plus pprof when asked for. It rides the metrics
	// listener unless -debug-addr splits it onto its own.
	mountDebug := func(mux *http.ServeMux) {
		srv.RegisterDebug(mux)
		if ctl != nil {
			ctl.RegisterHTTP(mux)
		}
		if *withPprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
	}
	if *metricsAddr != "" {
		// /healthz reflects the live server state: 503 while the agent
		// holds a self-suspension or once a drain has begun, so whatever
		// steers traffic at this machine stops before the sockets do.
		mount := mountDebug
		if *debugAddr != "" {
			mount = nil // forensics live on their own listener below
		}
		ms, err := obs.ServeWith(*metricsAddr, srv.Reg, srv.Healthy, mount)
		if err != nil {
			fmt.Fprintln(os.Stderr, "authdns:", err)
			srv.Close()
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("authdns: metrics http://%s/metrics\n", ms.Addr())
	}
	if *debugAddr != "" {
		ds, err := obs.ServeWith(*debugAddr, srv.Reg, srv.Healthy, mountDebug)
		if err != nil {
			fmt.Fprintln(os.Stderr, "authdns:", err)
			srv.Close()
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("authdns: debug http://%s/debug/queries\n", ds.Addr())
	}

	// Graceful shutdown on SIGTERM/SIGINT: health flips to 503 immediately,
	// accepting stops, and in-flight queries get the drain grace period
	// before remaining connections are force-closed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("authdns: draining (grace %s)\n", *drainTimeout)
	if !srv.Drain(*drainTimeout) {
		fmt.Println("authdns: drain deadline hit; lingering connections force-closed")
	}
	fmt.Printf("authdns: served %d udp / %d tcp queries (%d truncated, %d transfers, %d discarded, %d panics contained)\n",
		srv.Metrics.UDPQueries.Load(), srv.Metrics.TCPQueries.Load(),
		srv.Metrics.Truncated.Load(), srv.Metrics.Transfers.Load(), srv.Metrics.Discarded.Load(),
		srv.Metrics.Panics.Load())
}
