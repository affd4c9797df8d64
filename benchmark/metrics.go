package main

// metricSpec names one metric. BENCHMARK.json at the root of the repo lists
// the same names, units, directions, and bounds; a test keeps the two equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end to end: share of the base's median it may worsen by
	Exact  bool    // per layer: a count that must repeat bit for bit
}

// endToEnd are the metrics a user of the system would see. Each is computed
// per round; the reported value is the median of the rounds. failed_ratio,
// the sixth end-to-end number, is 0 on every accepted run, so it is not a
// bounded metric: it travels as the attempted/failed counts of the result.
//
// Every bound is the widest the benchmark contract allows. On the host the
// benchmark was defined on, a pure register loop drifts by a quarter from
// one minute to the next, and every timing here drifts with it; ten runs'
// quartiles lie 10% to 20% of the median apart (see README.md).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, measured from outside around
// public calls. Layer names are this repo's packages.
var perLayer = []metricSpec{
	{Name: "parc.parse_us", Unit: "us", Better: "lower"},
	{Name: "parc.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "parc.print_us", Unit: "us", Better: "lower"},
	{Name: "parc.share", Unit: "ratio", Better: "lower"},
	{Name: "interp.mops_per_s", Unit: "Mops/s", Better: "higher"},
	{Name: "sim.run_trace_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.run_measure_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.mcycles_per_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "sim.maccess_per_s", Unit: "Maccess/s", Better: "higher"},
	{Name: "sim.small_run_us", Unit: "us", Better: "lower"},
	{Name: "sim.cycles_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.share", Unit: "ratio", Better: "lower"},
	{Name: "coherence.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "coherence.miss_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "trace.records_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.codec_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.annotate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.annotate_us", Unit: "us", Better: "lower"},
	{Name: "core.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.directives_total", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.share", Unit: "ratio", Better: "lower"},
	{Name: "vet.analyze_us", Unit: "us", Better: "lower"},
	{Name: "vet.share", Unit: "ratio", Better: "lower"},
	{Name: "staticanno.annotate_us", Unit: "us", Better: "lower"},
	{Name: "staticanno.exact_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "staticanno.share", Unit: "ratio", Better: "lower"},
	{Name: "serve.canonical_us", Unit: "us", Better: "lower"},
	{Name: "serve.marshal_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.executions_per_req", Unit: "ratio", Better: "lower"},
	{Name: "serve.flight_shared_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.share", Unit: "ratio", Better: "lower"},
	{Name: "http.loopback_overhead_us", Unit: "us", Better: "lower"},
	{Name: "obs.recorder_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// ledger holds per-layer metrics as they are measured: the value and how
// many samples it rests on.
type ledger map[string]measured

type measured struct {
	value   float64
	samples int
}

func (l ledger) set(name string, value float64, samples int) {
	l[name] = measured{value, samples}
}
