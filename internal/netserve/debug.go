package netserve

// This file is the live forensics surface: JSON endpoints mounted on the
// metrics listener (obs.ServeWith) that expose what the flight recorder,
// the query-of-death quarantine, and the compiled-view machinery are seeing
// right now. The paper's operators diagnose attacks from per-nameserver
// telemetry; these endpoints are that workflow over HTTP — curl /debug/topk
// during a flood and the attack suffix is the top entry.

import (
	"encoding/json"
	"net/http"
	"time"

	"akamaidns/internal/flight"
	"akamaidns/internal/qod"
)

// RegisterDebug mounts the forensics endpoints on mux:
//
//	/debug/queries  recent flight-recorder records (filters: n, verdict,
//	                rcode, qtype, suffix, anomalous)
//	/debug/topk     heavy-hitter qname suffixes, qtypes, and resolvers
//	/debug/qod      quarantine table, strikes, and overload state
//	/debug/views    zone router/view generations and rebuild counts
//
// Endpoints whose subsystem is disabled report 404.
func (s *Server) RegisterDebug(mux *http.ServeMux) {
	if s.flight != nil {
		mux.Handle("/debug/queries", s.flight.QueriesHandler())
		mux.Handle("/debug/topk", s.flight.TopKHandler())
	}
	mux.HandleFunc("/debug/qod", s.qodDebug)
	mux.HandleFunc("/debug/views", s.viewsDebug)
}

// FlightRecorder exposes the query flight recorder (nil when disabled).
func (s *Server) FlightRecorder() *flight.Recorder { return s.flight }

// qodSignatureJSON is one quarantined signature.
type qodSignatureJSON struct {
	Suffix    string `json:"suffix"`
	QType     uint16 `json:"qtype"`
	Strikes   int    `json:"strikes"`
	ExpiresIn string `json:"expires_in"`
}

// qodDebugJSON is the /debug/qod document.
type qodDebugJSON struct {
	Enabled     bool               `json:"enabled"`
	Entries     int                `json:"entries"`
	Capacity    int                `json:"capacity"`
	Admitted    uint64             `json:"admitted_total"`
	Refused     uint64             `json:"refused_total"`
	Panics      uint64             `json:"contained_panics_total"`
	Signatures  []qodSignatureJSON `json:"signatures"`
	Overload    string             `json:"overload_level"`
	InflightNow int64              `json:"inflight"`
}

// qodDebug serves the quarantine table and strike history alongside the
// ladder state an operator needs to read it.
func (s *Server) qodDebug(w http.ResponseWriter, req *http.Request) {
	now := time.Now()
	doc := qodDebugJSON{
		Enabled:    true,
		Refused:    s.Metrics.QoDRefused.Load(),
		Panics:     s.Metrics.Panics.Load(),
		Signatures: []qodSignatureJSON{},
		Overload:   qod.LevelName(s.OverloadLevel()),
	}
	doc.Entries = s.qodGuard.Len()
	doc.Capacity = s.qodGuard.Cap()
	doc.Admitted = s.qodGuard.Admitted()
	for _, sig := range s.qodGuard.Snapshot() {
		doc.Signatures = append(doc.Signatures, qodSignatureJSON{
			Suffix:    sig.Suffix,
			QType:     sig.QType,
			Strikes:   sig.Strikes,
			ExpiresIn: sig.Expires.Sub(now).Round(time.Millisecond).String(),
		})
	}
	if s.ladder != nil {
		doc.InflightNow = s.ladder.Inflight()
	}
	writeDebugJSON(w, doc)
}

// viewsZoneJSON is one hosted zone's compiled-view identity.
type viewsZoneJSON struct {
	Origin  string `json:"origin"`
	Serial  uint32 `json:"serial"`
	Records int    `json:"records"`
	// ViewBytes is the heap footprint of the zone's compiled view, which is
	// the zone at rest.
	ViewBytes int `json:"view_bytes"`
}

// viewsDebugJSON is the /debug/views document.
type viewsDebugJSON struct {
	// StoreGen is the ordinal of the installed zone set.
	StoreGen     uint64 `json:"store_gen"`
	ViewRebuilds uint64 `json:"view_rebuilds_total"`
	ViewBytes    int64  `json:"view_bytes"`
	// RouterShardRebuilds counts shard maps cloned across republishes;
	// divided by StoreGen it is the mean dirty-shard width per apply
	// (1 ≈ single-zone batches, RouterShards ≈ full rebuilds).
	RouterShardRebuilds uint64 `json:"router_shard_rebuilds_total"`
	RouterShards        int    `json:"router_shards"`
	// SerialSum is the order-independent (origin, serial) content hash of
	// the installed set — compare across machines to spot divergence
	// without diffing zone lists.
	SerialSum  uint64          `json:"serial_sum"`
	ViewServed uint64          `json:"view_served_total"`
	Zones      []viewsZoneJSON `json:"zones"`
}

// viewsDebug serves the zone router/view generation and rebuild stats — a
// rebuild storm or a stale serial is visible at a glance.
func (s *Server) viewsDebug(w http.ResponseWriter, req *http.Request) {
	store := s.Engine.Store
	doc := viewsDebugJSON{
		StoreGen:            store.Gen(),
		ViewRebuilds:        store.ViewRebuilds(),
		ViewBytes:           store.ViewBytes(),
		RouterShardRebuilds: store.ShardRebuilds(),
		RouterShards:        store.RouterShards(),
		SerialSum:           store.SerialSum(),
		ViewServed:          s.Metrics.ViewServed.Load(),
		Zones:               []viewsZoneJSON{},
	}
	for origin, serial := range store.Serials() {
		zj := viewsZoneJSON{Origin: origin.String(), Serial: serial}
		if z := store.Get(origin); z != nil {
			zj.Records = z.NumRecords()
			zj.ViewBytes = z.ViewBytes()
		}
		doc.Zones = append(doc.Zones, zj)
	}
	writeDebugJSON(w, doc)
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
