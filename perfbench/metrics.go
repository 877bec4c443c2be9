package main

import (
	"fmt"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it; the test in
// TestBenchmarkFileMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"solve_p1_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"heap_mb", "MB", "lower", 0.15},
}

var perLayerMetrics = []metricDef{
	{"graph.gen_s", "s", "lower", 0},
	{"graph.build_s", "s", "lower", 0},
	{"graph.mb", "MB", "lower", 0},
	{"parallel.speedup", "x", "higher", 0},
	{"parallel.idle_cpu_s", "s", "lower", 0},
	{"parallel.sched_wait_ms", "ms", "lower", 0},
	{"bucket.next_calls", "count", "lower", 0},
	{"bucket.next_ms", "ms", "lower", 0},
	{"bucket.update_calls", "count", "lower", 0},
	{"bucket.update_ms", "ms", "lower", 0},
	{"bucket.moved", "count", "lower", 0},
	{"bucket.skipped", "count", "lower", 0},
	{"bucket.extracted", "count", "lower", 0},
	{"bucket.update_rate", "1/s", "higher", 0},
	{"bucket.rounds_saved", "count", "higher", 0},
	{"ligra.sparse_calls", "count", "lower", 0},
	{"ligra.dense_calls", "count", "lower", 0},
	{"ligra.edges", "count", "lower", 0},
	{"ligra.apply_ms", "ms", "lower", 0},
	{"algo.kcore_s", "s", "lower", 0},
	{"algo.wbfs_s", "s", "lower", 0},
	{"algo.wbfs_fused_s", "s", "lower", 0},
	{"algo.delta_s", "s", "lower", 0},
	{"algo.delta_fused_s", "s", "lower", 0},
	{"algo.setcover_s", "s", "lower", 0},
	{"algo.rounds", "count", "lower", 0},
	{"algo.round_p50_us", "us", "lower", 0},
	{"algo.relax_per_reached", "ratio", "lower", 0},
	{"algo.reached", "count", "higher", 0},
	{"runtime.allocs", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_s", "s", "lower", 0},
	{"runtime.mutex_wait_ms", "ms", "lower", 0},
	{"obs.rounds_retained", "count", "lower", 0},
	{"obs.events_retained", "count", "lower", 0},
	{"serve.lat_p50_ms.low", "ms", "lower", 0},
	{"serve.lat_tail_ms.low", "ms", "lower", 0},
	{"serve.lat_p50_ms.high", "ms", "lower", 0},
	{"serve.lat_tail_ms.high", "ms", "lower", 0},
	{"serve.max_qps", "1/s", "higher", 0},
	{"serve.job_s", "s", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.handler_ms", "ms", "lower", 0},
	{"serve.transport_ms", "ms", "lower", 0},
	{"serve.lookup_p50_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.cache_lookups", "count", "higher", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.gen_late_ms", "ms", "lower", 0},
	{"serve.alloc_mb", "MB", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// note qualifies a printed metric: latency figures carry their sample
// count and, for tails, the percentile they are.
func (d metricDef) note(st *serveStage) string {
	var phs []*phase
	switch d.Name {
	case "serve.lat_p50_ms.low", "serve.lat_tail_ms.low":
		phs = st.low
	case "serve.lat_p50_ms.high", "serve.lat_tail_ms.high":
		phs = st.high
	case "serve.job_s":
		return fmt.Sprintf("median of %d jobs", len(st.jobs.jobs))
	case "serve.max_qps":
		return fmt.Sprintf("p90 crossing over %d ladder rungs", len(st.ladder))
	default:
		return ""
	}
	l := pooled(phs)
	if strings.Contains(d.Name, "tail") {
		return fmt.Sprintf("p%.1f of %d samples over %d rounds", l.TailPct, l.N, len(phs))
	}
	return fmt.Sprintf("median of %d samples over %d rounds", l.N, len(phs))
}
