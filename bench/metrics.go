package main

import (
	"math"
	"sort"
)

// metricDef names one benchmark metric. The two tables below are the
// vocabulary every later perf or simplicity PR is judged in:
// BENCHMARK.json lists exactly these names (TestManifestMatchesRegistry),
// a run with -trace 0 prints every end-to-end metric and a run with
// -trace 1 every per-layer metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; 0 on
	// per-layer metrics, which are never gated.
	Bound float64
}

// endToEnd are the metrics a caller of the system sees. Every workload
// reports every one of them, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.20},
	{"query_p50_us", "us", "lower", 0.15},
	{"query_p99_us", "us", "lower", 0.25},
	{"refresh_cost_per_query", "cost/query", "lower", 0.10},
	{"allocs_per_query", "count", "lower", 0.10},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer are the metrics of single layers, named <module>.<metric>
// after the repo's internal packages. A count or share that reads 0
// means the layer is not on that workload's path.
var perLayer = []metricDef{
	{"sql.parse_ns", "ns", "lower", 0},

	{"query.execute_self_ns", "ns", "lower", 0},
	{"query.plancache_hit_share", "share", "higher", 0},
	{"query.plancache_invalidations_per_tick", "count", "lower", 0},
	{"query.batch_ns_per_query", "ns", "lower", 0},

	{"cache.sync_ns_per_object", "ns", "lower", 0},
	{"cache.sync_share", "share", "lower", 0},

	{"aggregate.scan_ns_per_row", "ns", "lower", 0},
	{"aggregate.scan_share", "share", "lower", 0},
	{"aggregate.rows_scanned_per_query", "count", "lower", 0},

	{"refresh.choose_ns_per_candidate", "ns", "lower", 0},
	{"refresh.choose_share", "share", "lower", 0},
	{"refresh.tuples_refreshed_per_query", "count", "lower", 0},

	{"source.refresh_ns_per_key", "ns", "lower", 0},
	{"source.refresh_share", "share", "lower", 0},
	{"source.refresh_batches_per_query", "count", "lower", 0},
	{"source.push_ns", "ns", "lower", 0},
	{"source.push_p50_us", "us", "lower", 0},
	{"source.push_p99_us", "us", "lower", 0},
	{"netsim.query_refresh_msgs_per_query", "count", "lower", 0},
	{"netsim.value_refresh_cost_per_push", "cost/push", "lower", 0},

	{"relation.heap_bytes_per_object", "bytes", "lower", 0},
	{"relation.wal_append_ns", "ns", "lower", 0},
	{"relation.wal_bytes_per_record", "bytes", "lower", 0},
	{"relation.wal_bytes_per_push", "bytes", "lower", 0},
	{"relation.wal_fsync_ns", "ns", "lower", 0},
	{"relation.checkpoint_s", "s", "lower", 0},
	{"relation.checkpoints", "count", "lower", 0},
	{"relation.snapshot_bytes_per_object", "bytes", "lower", 0},
	{"relation.recovery_s", "s", "lower", 0},
	{"relation.recovery_ns_per_record", "ns", "lower", 0},

	{"continuous.notifications_per_push", "count", "lower", 0},
	{"continuous.rounds_per_push", "count", "lower", 0},
	{"continuous.settle_ns_per_push", "ns", "lower", 0},
	{"continuous.shared_refresh_share", "share", "higher", 0},

	{"server.frame_encode_ns", "ns", "lower", 0},
	{"server.frame_decode_ns", "ns", "lower", 0},
	{"server.bytes_per_request", "bytes", "lower", 0},
	{"server.bytes_per_response", "bytes", "lower", 0},
	{"server.wire_overhead_us", "us", "lower", 0},
	{"server.plan_cache_hit_rate", "share", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.http_ns_per_query", "ns", "lower", 0},

	{"partition.coord_self_ns", "ns", "lower", 0},
	{"partition.node_calls_per_query", "count", "lower", 0},
	{"partition.local_ns_per_query", "ns", "lower", 0},
	{"partition.state_resp_bytes", "bytes", "lower", 0},
	{"partition.inputs_resp_bytes_per_input", "bytes", "lower", 0},
	{"partition.retries", "count", "lower", 0},
	{"partition.degraded", "count", "lower", 0},

	{"obs.trace_overhead_share", "share", "lower", 0},
	{"obs.driver_self_share", "share", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the quartiles of xs over their median
// — how far apart the timed segments of one run were; 0 when there are
// too few to tell. Quartiles are taken as Python's
// statistics.quantiles(xs, n=4) takes them, the method the benchmark's
// bounds were set with.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

// percentile returns the p-quantile (nearest rank) of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
