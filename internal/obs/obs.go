// Package obs is the platform's unified observability core: a
// dependency-free metrics vocabulary (atomic counters, gauges, fixed-bucket
// histograms) behind a sharded registry tuned for sub-100ns hot-path
// increments, a query-lifecycle tracer that stamps each query's passage
// through the serving stages, and a Prometheus-text-format exposition
// handler.
//
// The paper's Figure 5 treats monitoring as a first-class subsystem — the
// on-machine health checks, the Data Collection/Aggregation system, and the
// NOCC alerting all consume per-nameserver counters. Every front-end of
// this reproduction (the simulated nameserver, the real-socket server, the
// scoring pipeline, and the penalty queues) reports through this one
// vocabulary so the telemetry aggregator, the experiments, and a scraping
// operator all see the same numbers.
//
// Design rules:
//
//   - Hot paths hold *Counter / *Gauge / *Histogram handles obtained once
//     at setup; an increment is a single atomic add with no map lookups.
//   - Registration (Registry.Counter and friends) is get-or-create and
//     cheap enough for occasional dynamic series, but is not meant for the
//     per-query path.
//   - The package depends only on the standard library.
package obs

// Canonical metric names: the shared vocabulary all subsystems register
// under and the telemetry aggregator extracts by. The naming scheme is
// Prometheus-conventional: akamaidns_<subsystem>_<quantity>[_total] with
// snake_case names, _total suffix on counters, and unit-suffixed
// histograms.
const (
	// Socket/simulated server counters.
	MetricQueriesTotal      = "akamaidns_server_queries_total"  // label: transport
	MetricReceivedTotal     = "akamaidns_server_received_total" // simulated ingress
	MetricAnsweredTotal     = "akamaidns_server_answered_total" //
	MetricAnsweredLegit     = "akamaidns_server_answered_legit_total"
	MetricReceivedLegit     = "akamaidns_server_received_legit_total"
	MetricNXDomainTotal     = "akamaidns_server_nxdomain_total"
	MetricCrashesTotal      = "akamaidns_server_crashes_total"
	MetricDiscardedTotal    = "akamaidns_server_discarded_total" // score >= Smax
	MetricTailDroppedTotal  = "akamaidns_server_taildropped_total"
	MetricIODroppedTotal    = "akamaidns_server_io_dropped_total"
	MetricQoDBlockedTotal   = "akamaidns_server_qod_blocked_total"
	MetricSuspensionsTotal  = "akamaidns_server_suspensions_total"
	MetricFormErrTotal      = "akamaidns_server_formerr_total"
	MetricTruncatedTotal    = "akamaidns_server_truncated_total"
	MetricTransfersTotal    = "akamaidns_server_transfers_total"
	MetricWriteErrorsTotal  = "akamaidns_server_write_errors_total"
	MetricDecodeErrorsTotal = "akamaidns_server_decode_errors_total"

	// Batched UDP syscall I/O (recvmmsg/sendmmsg read loops).
	MetricSendShortfallTotal = "akamaidns_server_send_shortfall_total"
	MetricUDPBatchSize       = "akamaidns_server_udp_batch_size"

	// Self-protection: query-of-death containment, live self-suspension,
	// and the overload degradation ladder on the socket server.
	MetricPanicsTotal       = "akamaidns_server_handler_panics_total"
	MetricQoDRefusedTotal   = "akamaidns_server_qod_refused_total"
	MetricQuarantineEntries = "akamaidns_qod_quarantine_entries"
	MetricQuarantinedTotal  = "akamaidns_qod_quarantined_total"
	MetricSuspended         = "akamaidns_server_suspended"
	MetricOverloadLevel     = "akamaidns_server_overload_level"
	MetricInflightHandlers  = "akamaidns_server_inflight_handlers"
	MetricShedTotal         = "akamaidns_server_shed_total" // label: level
	MetricTCPRejectedTotal  = "akamaidns_server_tcp_rejected_total"

	// Attack pipeline.
	MetricFilterHitsTotal = "akamaidns_filter_hits_total" // label: filter

	// Penalty queues.
	MetricQueueDepth            = "akamaidns_queue_depth" // label: queue
	MetricQueueEnqueuedTotal    = "akamaidns_queue_enqueued_total"
	MetricQueueDiscardedTotal   = "akamaidns_queue_discarded_total"
	MetricQueueTailDroppedTotal = "akamaidns_queue_taildropped_total"

	// Compiled zone views (RCU read path).
	MetricViewServedTotal     = "akamaidns_server_view_served_total"
	MetricViewRebuildsTotal   = "akamaidns_zone_view_rebuilds_total"
	MetricViewBytes           = "akamaidns_zone_view_bytes"
	MetricRouterRebuilds      = "akamaidns_zone_router_rebuilds_total"
	MetricRouterShardRebuilds = "akamaidns_zone_router_shard_rebuilds_total"

	// Packed-response hot cache.
	MetricHotCacheHitsTotal      = "akamaidns_hotcache_hits_total"
	MetricHotCacheMissesTotal    = "akamaidns_hotcache_misses_total"
	MetricHotCacheEvictionsTotal = "akamaidns_hotcache_evictions_total"
	MetricHotCacheEntries        = "akamaidns_hotcache_entries"

	// Query-lifecycle tracing.
	MetricQueryDuration = "akamaidns_query_duration_seconds"       // end-to-end histogram
	MetricStageDuration = "akamaidns_query_stage_duration_seconds" // label: stage

	// Query flight recorder.
	MetricFlightRecordsTotal = "akamaidns_flight_records_total" // label: reason
	MetricFlightSampleEvery  = "akamaidns_flight_sample_every"
	MetricFlightZoneRcode    = "akamaidns_flight_zone_rcode_records_total" // labels: zone, rcode

	// Process identity.
	MetricBuildInfo = "akamaidns_build_info" // labels: version, commit, go_version
)

// Kind classifies a metric family.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}
