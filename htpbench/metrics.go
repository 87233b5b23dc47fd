package main

import "fmt"

// metricDef names one metric the benchmark reports. endToEnd metrics come
// from untraced runs (--trace 0); the rest are per-layer metrics from the
// traced run (--trace 1). BENCHMARK.json at the repository root lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name     string
	unit     string
	better   string // "lower" or "higher"
	endToEnd bool
}

// boundaryLevels is how many uncoarsening levels get their own
// fm.boundary_l<k>_ms metric; refinement on level boundaryLevels−1 and any
// coarser level is summed into the last one.
const boundaryLevels = 8

var catalog = buildCatalog()

func buildCatalog() []metricDef {
	e2e := func(name, unit, better string) metricDef { return metricDef{name, unit, better, true} }
	layer := func(name, unit, better string) metricDef { return metricDef{name, unit, better, false} }
	defs := []metricDef{
		e2e("wall_s", "s", "lower"),
		e2e("job_p50_s", "s", "lower"),
		e2e("job_p90_s", "s", "lower"),
		e2e("jobs_per_s", "1/s", "higher"),
		e2e("cost_geomean", "cost", "lower"),
		e2e("peak_rss_mb", "MB", "lower"),
		e2e("setup_s", "s", "lower"),

		layer("hypergraph.parse_ms", "ms", "lower"),
		layer("multilevel.coarsen_ms", "ms", "lower"),
		layer("multilevel.project_ms", "ms", "lower"),
		layer("multilevel.levels", "count", "lower"),
		layer("multilevel.coarsest_nodes", "count", "lower"),
		layer("multilevel.coarsest_nets", "count", "lower"),
		layer("multilevel.coarsest_pins", "count", "lower"),
		layer("inject.metric_ms", "ms", "lower"),
		layer("inject.rounds", "count", "lower"),
		layer("inject.injections", "count", "lower"),
		layer("inject.tree_nets", "count", "lower"),
		layer("inject.converged", "share", "higher"),
		layer("htp.build_ms", "ms", "lower"),
		layer("htp.builds", "count", "lower"),
		layer("fm.boundary_ms", "ms", "lower"),
	}
	for k := 0; k < boundaryLevels; k++ {
		defs = append(defs, layer(boundaryLevelMetric(k), "ms", "lower"))
	}
	return append(defs,
		layer("fm.boundary_gain", "cost", "higher"),
		layer("fm.hier_ms", "ms", "lower"),
		layer("fm.hier_gain", "cost", "higher"),
		layer("flowrefine.refine_ms", "ms", "lower"),
		layer("flowrefine.pairs", "count", "lower"),
		layer("flowrefine.accepted", "count", "higher"),
		layer("flowrefine.accept_ratio", "share", "higher"),
		layer("flowrefine.gain", "cost", "higher"),
		layer("verify.certify_ms", "ms", "lower"),
		layer("server.submit_ms", "ms", "lower"),
		layer("server.queue_wait_ms", "ms", "lower"),
		layer("server.run_ms", "ms", "lower"),
		layer("server.solve_ms", "ms", "lower"),
		layer("server.result_ms", "ms", "lower"),
		layer("server.sse_events", "count", "lower"),
		layer("server.degraded", "count", "lower"),
		layer("server.retries", "count", "lower"),
		layer("server.journal_bytes", "B/job", "lower"),
		layer("server.heap_live_mb", "MB", "lower"),
		layer("server.restart_ms", "ms", "lower"),
		layer("trace.wall_ms", "ms", "lower"),
		layer("trace.untraced_wall_ms", "ms", "lower"),
		layer("trace.overhead_ms", "ms", "lower"),
		layer("trace.unaccounted_ms", "ms", "lower"),
		layer("trace.stale", "flag", "lower"),
	)
}

// boundaryLevelMetric names the boundary-FM time on uncoarsening level k
// (0 = the input graph).
func boundaryLevelMetric(k int) string {
	if k >= boundaryLevels {
		k = boundaryLevels - 1
	}
	return fmt.Sprintf("fm.boundary_l%d_ms", k)
}
