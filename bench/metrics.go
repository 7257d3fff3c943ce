package main

import "blockhead/internal/core"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: its name, unit, which direction is better
// and — for end-to-end metrics — the share of the baseline median by which
// it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees, in host time. Every
// workload emits every one of them from its untraced run. BENCHMARK.json
// repeats this table; bench_test.go keeps the two in step.
//
// fail_frac and model_drift are not in the table because both must be
// exactly zero: they are the run's correct/attempted/failed verdict instead.
// allocs_per_op and alloc_bytes_per_op sit in perLayer because they are
// zero on the direct-call workloads, where a relative bound means nothing.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is the traced run's table. Names are module names. A rung
// (x_ns, x_s) is that layer's public function driven standalone by the
// ladder; counts, self times and shares come from the workload itself and
// are zero on a workload that never enters the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("allocs_per_op", "1/op"), lo("alloc_bytes_per_op", "B/op"),

		lo("sim.loop_ns_per_event", "ns"), lo("sim.loop_allocs_per_event", "1/op"),
		hi("sim.events", "count"), lo("sim.share", "frac"),

		lo("workload.uniform_ns", "ns"), lo("workload.poisson_ns", "ns"), lo("workload.zipf_ns", "ns"),

		lo("flash.new_s", "s"), lo("flash.program_ns", "ns"), lo("flash.read_ns", "ns"),
		lo("flash.erase_ns", "ns"), lo("flash.copy_ns", "ns"),
		lo("flash.programs", "count"), lo("flash.reads", "count"), lo("flash.erases", "count"),
		lo("flash.share", "frac"),

		lo("ftl.new_s", "s"), lo("ftl.seq_write_ns", "ns"), lo("ftl.gc_write_ns", "ns"), lo("ftl.read_ns", "ns"),
		lo("ftl.gc_runs", "count"), lo("ftl.gc_copies_per_host_write", "ratio"),
		lo("ftl.self_ns_per_write", "ns"), lo("ftl.share", "frac"),

		lo("zns.new_s", "s"), lo("zns.append_ns", "ns"), lo("zns.read_ns", "ns"), lo("zns.reset_ns", "ns"),
		lo("zns.simple_copy_ns_per_page", "ns"),
		hi("zns.appends", "count"), lo("zns.resets", "count"), lo("zns.share", "frac"),

		lo("hostftl.seq_write_ns", "ns"), lo("hostftl.gc_write_ns", "ns"), lo("hostftl.read_ns", "ns"),
		lo("hostftl.gc_resets", "count"), lo("hostftl.write_amp", "ratio"),
		lo("hostftl.self_ns_per_write", "ns"), lo("hostftl.share", "frac"),

		lo("zkv.put_ns_p50", "ns"), lo("zkv.put_ns_max", "ns"), lo("zkv.get_ns_p50", "ns"),
		lo("zkv.stall_share", "frac"), lo("zkv.flushes", "count"), lo("zkv.compactions", "count"),
		lo("zkv.app_write_amp", "ratio"), lo("zkv.backend_ns_per_op", "ns"),
		lo("zkv.self_ns_per_op", "ns"), lo("zkv.share", "frac"),

		lo("core.driver_self_ns_per_op", "ns"), lo("core.share", "frac"),
		lo("core.format_ms", "ms"), lo("core.cpu_s_per_pass", "s"), hi("core.parallelism", "ratio"),

		lo("telemetry.attr_ns_per_op", "ns"), lo("telemetry.critpath_ns_per_op", "ns"),
		lo("telemetry.exemplar_ns_per_op", "ns"), lo("telemetry.armed_ns_per_op", "ns"),
		lo("telemetry.armed_allocs_per_op", "1/op"), lo("telemetry.share", "frac"),

		hi("trace.spans", "count"), lo("trace.overhead_frac", "frac"),
	}
	for _, e := range core.All() {
		defs = append(defs, lo("core.exp_ms."+e.ID, "ms"))
	}
	return defs
}

// metricSet collects values by name and fills every declared name a
// workload left out with zero, so each run emits the full table.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
