package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric, its unit and — for per-layer
// metrics — the end-to-end metrics it should move, and on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a --trace 0 run reports, in print order.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "qps", unit: "1/s"},
	{name: "dist_p50_us", unit: "us"},
	{name: "dist_p90_us", unit: "us"},
	{name: "route_p50_us", unit: "us"},
	{name: "path_p50_us", unit: "us"},
	{name: "batch_p50_us", unit: "us"},
	{name: "batch_p90_us", unit: "us"},
	{name: "update_s", unit: "s"},
	{name: "swap_s", unit: "s"},
	{name: "heap_mb", unit: "MB"},
}

// perLayer are the metrics a --trace 1 run reports, in print order.
var perLayer = []metricDef{
	{"oracle.query_ns", "ns", "dist_p50_us @ point-uniform"},
	{"routing.route_ns", "ns", "route_p50_us @ point-uniform"},
	{"serve.dist_ns", "ns", "dist_p50_us, qps @ point-uniform"},
	{"serve.route_ns", "ns", "route_p50_us, qps @ point-uniform"},
	{"serve.path_ns", "ns", "path_p50_us, qps @ point-uniform"},
	{"serve.batch_ns", "ns", "batch_p50_us @ hot-batch"},
	{"serve.overhead_x", "ratio", "dist_p50_us @ point-uniform (target <= 2)"},
	{"serve.cache_hit_ratio", "ratio", "qps, batch_p50_us @ hot-batch (~0 point-uniform, ~1 hot-batch)"},
	{"serve.cache_lookups", "count", "base of serve.cache_hit_ratio"},
	{"serve.allocs_per_query", "allocs/op", "heap_mb, dist_p90_us @ all"},
	{"obs.dist_ns", "ns", "dist_p50_us, qps @ point-uniform"},
	{"wire.dist_ns", "ns", "dist_p50_us, qps @ point-uniform"},
	{"wire.batch_ns", "ns", "batch_p50_us @ hot-batch"},
	{"wire.allocs_per_query", "allocs/op", "dist_p90_us, heap_mb @ point-uniform"},
	{"runtime.gc_per_mquery", "GC/Mquery", "heap_mb, dist_p90_us @ all"},
	{"trace.overhead_pct", "%", "tracing cost on the workload's main p50"},
	{"graph.gen_ms", "ms", "setup_s @ all"},
	{"core.skeleton_ms", "ms", "setup_s @ all"},
	{"distsim.rounds", "count", "setup_s @ all"},
	{"distsim.messages", "count", "setup_s @ all"},
	{"distsim.max_msg_words", "count", "setup_s @ all"},
	{"core.spanner_edges_per_n", "ratio", "path_p50_us, heap_mb @ all"},
	{"oracle.build_ms", "ms", "setup_s @ all, update_s @ churn"},
	{"routing.build_ms", "ms", "setup_s @ all, update_s @ churn"},
	{"artifact.encode_ms", "ms", "setup_s @ churn"},
	{"artifact.decode_ms", "ms", "swap_s @ churn"},
	{"artifact.mb", "MB", "swap_s @ churn, heap_mb @ all"},
	{"artifact.delta_apply_ms", "ms", "update_s @ churn"},
	{"artifact.delta_updates", "count", "update_s @ churn"},
	{"serve.swap_ms", "ms", "swap_s, update_s @ churn"},
	{"dynamic.batch_ms", "ms", "setup_s @ churn"},
}

// setDef records a metric under its definition's unit.
func (r *result) setDef(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.set(name, d.unit, v)
			return
		}
	}
	panic("servebench: undefined metric " + name)
}

// table prints defs' values from r, one per line.
func table(w io.Writer, title string, defs []metricDef, r *result) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		if d.moves != "" {
			fmt.Fprintf(w, "  %-26s %16.4f %-10s -> %s\n", d.name, m.Value, d.unit, d.moves)
		} else {
			fmt.Fprintf(w, "  %-26s %16.4f %s\n", d.name, m.Value, d.unit)
		}
	}
}
