package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"

	"repro/internal/core"
	"repro/internal/exp"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run, reported on every
// workload. BENCHMARK.json's end_to_end list names the same metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// stageNames are the flow's pipeline stages, in order.
var stageNames = func() []string {
	out := make([]string, core.NumStages)
	for s := range out {
		out[s] = core.Stage(s).String()
	}
	return out
}()

// perLayer lists the metrics of a traced run, reported on every
// workload; a layer the workload does not reach reads 0.
// BENCHMARK.json's per_layer list names the same metrics.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, s := range stageNames {
		out = append(out, metricDef{s + ".ms", "ms"})
	}
	for _, s := range stageNames {
		out = append(out, metricDef{s + ".alloc_mb", "MiB"})
	}
	out = append(out,
		metricDef{"route.rerouted", "count"},
		metricDef{"route.drvs", "count"},
		metricDef{"route.vias", "count"},
		metricDef{"cts.buffers", "count"},
		metricDef{"synth.buffers", "count"},
	)
	for _, id := range exp.ExperimentIDs() {
		out = append(out, metricDef{"exp." + id + ".ms", "ms"})
	}
	out = append(out,
		metricDef{"exp.memo_hit_ratio", "1"},
		metricDef{"exp.synthroot_hit_ratio", "1"},
		metricDef{"exp.diff_fork_ratio", "1"},
		metricDef{"serve.flow.p50_ms", "ms"},
		metricDef{"serve.sweep.p50_ms", "ms"},
		metricDef{"serve.mc.p50_ms", "ms"},
		metricDef{"serve.checkpoint_hit_ratio", "1"},
		metricDef{"serve.checkpoint_evictions", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.resident_mb", "MiB"},
		metricDef{"serve.memo_hit_ratio", "1"},
		metricDef{"serve.sweep_diff_fork_ratio", "1"},
		metricDef{"serve.rejected", "count"},
		metricDef{"variation.candidates", "count"},
		metricDef{"variation.study_ms", "ms"},
		metricDef{"variation.samples_per_s", "1/s"},
		metricDef{"runtime.gc_cpu_frac", "1"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.heap_peak_mb", "MiB"},
		metricDef{"trace.overhead_frac", "1"},
		metricDef{"trace.unattributed_frac", "1"},
	)
	return out
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run outcome printed as the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalize keeps exactly the metrics of defs, filling absent ones with
// 0, and rejects values that are not finite.
func finalize(vals map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}
