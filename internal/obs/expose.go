package obs

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers followed by one line per
// series, histograms expanded into _bucket/_sum/_count.
func WriteText(w io.Writer, snap Snapshot) error {
	lastFamily := ""
	for _, p := range snap {
		if p.Name != lastFamily {
			lastFamily = p.Name
			if p.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, p.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
				return err
			}
		}
		switch p.Kind {
		case KindHistogram:
			for _, b := range p.Buckets {
				le := "+Inf"
				if !math.IsInf(b.Upper, 1) {
					le = formatFloat(b.Upper)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					p.Name, withLabel(p.Labels, "le", le), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, p.Labels, formatFloat(p.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, p.Labels, p.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, p.Labels, formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel splices one extra label into an already rendered label block.
func withLabel(block, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if block == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(block, "}") + "," + extra + "}"
}

// Handler serves the registry at GET /metrics semantics: text format,
// suitable for a Prometheus scraper or curl.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteText(w, r.Snapshot())
	})
}

// HealthHandler serves /healthz: 200 "ok" while healthy() is true, 503
// otherwise. A nil healthy is always healthy.
func HealthHandler(healthy func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if healthy != nil && !healthy() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "unhealthy\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
}

// HTTPServer is the exposition endpoint: /metrics and /healthz on one
// listener.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeWith starts the exposition endpoint on addr (":0" picks an
// ephemeral port; read it back with Addr), with a hook to mount extra
// handlers (forensics endpoints, pprof) on the same listener. healthy and
// mount may be nil.
func ServeWith(addr string, r *Registry, healthy func() bool, mount func(*http.ServeMux)) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/healthz", HealthHandler(healthy))
	if mount != nil {
		mount(mux)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &HTTPServer{ln: ln, srv: srv}, nil
}

// Addr reports the bound address.
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close stops the endpoint.
func (h *HTTPServer) Close() error { return h.srv.Close() }
