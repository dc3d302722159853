package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon or of the reproduction
// suite sees. An operation is one request item on the serve workloads
// and one experiment on paper-pack; every workload reports every metric.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},   // certified operations per second
	{"p50_ms", "ms"},            // serve: per HTTP call; paper-pack: per experiment
	{"p99_ms", "ms"},            // as p50_ms, over answered operations
	{"makespan_ratio", "ratio"}, // mean makespan / lower bound of the answers
	{"suite_wall_s", "s"},       // one pass: the catalogue once, or the four packs
	{"live_heap_mib", "MiB"},    // live heap after a forced GC at the end
	{"setup_s", "s"},            // median of the run's set-ups
}

// Per-layer metrics of the traced run, by layer. A workload that does
// not exercise a layer reports it as 0.
var (
	serveLayer = []metricDef{
		{"serve.hit_p50_ms", "ms"},
		{"serve.hit_p99_ms", "ms"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.hit_ratio", "ratio"},
		{"serve.evictions_per_1k", "count"},
		{"serve.cache_mib", "MiB"},
		{"serve.overhead_us", "us"},
	}
	solverLayers = []metricDef{
		{"model.decode_us", "us"},
		{"model.bytes_per_req", "B"},
		{"relax.lp_ms", "ms"},
		{"relax.probes_per_req", "count"},
		{"lp.pivots_per_req", "count"},
		{"lp.cold_solves_per_req", "count"},
		{"lp.warm_hit_ratio", "ratio"},
		{"lp.subset_hits_per_req", "count"},
		{"approx.round_ms", "ms"},
		{"approx.best_extra_ms", "ms"},
		{"exact.solve_p50_ms", "ms"},
		{"exact.solve_p99_ms", "ms"},
		{"exact.probes_per_req", "count"},
		{"exact.visited_per_req", "count"},
		{"exact.canonical_per_req", "count"},
		{"rt.test_ms", "ms"},
		{"rt.allocs_per_probe", "count"},
		{"memcap.model1_ms", "ms"},
		{"memcap.model2_ms", "ms"},
		{"memcap.fallbacks_per_req", "count"},
		{"dag.compile_ms", "ms"},
		{"dag.segments_per_req", "count"},
	}
	runtimeLayer = []metricDef{
		{"go.allocs_per_req", "count"},
		{"go.alloc_bytes_per_req", "B"},
		{"go.gc_per_1k_req", "count"},
		{"go.alloc_mib_per_pass", "MiB"},
	}
	benchLayer = []metricDef{
		{"trace.overhead_ms", "ms"},      // traced p50 minus untraced p50
		{"load.distinct_share", "ratio"}, // distinct requests / requests sent
		{"load.repeat_share", "ratio"},   // requests repeating an earlier one / requests sent
	}
)

// packIDs are the experiments of the four quick packs, in suite order.
var packIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15",
	"RT1", "RT2", "MC1", "MC2", "DAG1", "DAG2", "DAG3",
}

// perLayer is every per-layer metric, in the order BENCHMARK.json lists
// them.
func perLayer() []metricDef {
	var defs []metricDef
	defs = append(defs, serveLayer...)
	defs = append(defs, solverLayers...)
	for _, id := range packIDs {
		defs = append(defs, metricDef{"expt." + id + "_ms", "ms"})
	}
	defs = append(defs, metricDef{"expt.parallel_efficiency", "ratio"})
	defs = append(defs, runtimeLayer...)
	return append(defs, benchLayer...)
}

// quantile returns the nearest-rank q-quantile of xs (sorting a copy);
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
