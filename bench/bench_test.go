package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyOpts(t *testing.T, trace bool) runOpts {
	sc, err := scaleFor("tiny", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{seed: 42, trace: trace, sc: sc, slices: 2 * checkpointSlice, log: io.Discard}
}

// Every workload, untraced and traced, at tiny scale: the full metric
// tables come out, nothing fails, nothing drifts between set-up repeats,
// and the layer accounting stays physical.
func TestWorkloadsTiny(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("contract sizes: %d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(def, tinyOpts(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			d := res.Detail
			if !res.Correct || d.ModelDrift != 0 || d.FailFrac != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v model_drift=%d fail_frac=%g attempted=%d drifts=%v",
					def.name, trace, res.Correct, d.ModelDrift, d.FailFrac, res.Attempted, d.Drifts)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", def.name, trace, len(res.Metrics), len(defs))
			}
			var shares float64
			for _, md := range defs {
				m, ok := res.Metrics[md.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", def.name, trace, md.Name)
				case m.Unit != md.Unit || !unitRE.MatchString(m.Unit) || !nameRE.MatchString(md.Name):
					t.Errorf("%s: metric %q unit %q: bad name or unit", def.name, md.Name, m.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, must never be zero", def.name, md.Name, m.Value)
				}
				if strings.HasSuffix(md.Name, ".share") || strings.Contains(md.Name, "self_ns") {
					if m.Value < 0 {
						t.Errorf("%s: %s = %g, negative", def.name, md.Name, m.Value)
					}
					if strings.HasSuffix(md.Name, ".share") {
						shares += m.Value
					}
				}
			}
			if shares > 1.0001 {
				t.Errorf("%s: layer shares sum to %g > 1", def.name, shares)
			}
		}
	}
}

// A changed simulated statistic must show as drift, and a changed setting
// as well: the check is exact equality on text.
func TestDriftIsDetected(t *testing.T) {
	var a, b modelStats
	a.u("HostWritePages", 100)
	a.f("WriteAmp", 2.5)
	b.u("HostWritePages", 101)
	b.f("WriteAmp", 2.5)
	if d := diffStats(b.asMap(), a.asMap()); len(d) != 1 {
		t.Errorf("diffStats = %v, want one difference", d)
	}
	if chain("", a) == chain("", b) || chain("x", a) == chain("", a) {
		t.Error("chain does not separate differing stats or differing history")
	}
}

// BENCHMARK.json repeats the tables in metrics.go and workload.go; the
// driver reads the file, the program emits from the tables.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q differs from the program's %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", f.PerLayer, perLayer)
	}
	hasSetup := false
	for _, md := range f.EndToEnd {
		if md.Bound <= 0 || md.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", md.Name, md.Bound)
		}
		hasSetup = hasSetup || (md.Name == "setup_s" && md.Unit == "s" && md.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// The seed-42 campaign golden pins the same bytes as the committed full
// output, minus that file's # header.
func TestCampaignGoldenMatchesDocs(t *testing.T) {
	b, err := os.ReadFile("../docs/znsbench_full_output.txt")
	if err != nil {
		t.Skip("no committed full output beside this module:", err)
	}
	text := string(b)
	for strings.HasPrefix(text, "#") {
		_, text, _ = strings.Cut(text, "\n")
	}
	text = strings.TrimPrefix(text, "\n")
	sc, _ := scaleFor("full", defaultGeometry)
	g, err := loadGolden("campaign", 42, sc)
	if err != nil || g == nil {
		t.Fatalf("campaign seed 42 is not pinned: %v", err)
	}
	if got, want := g.Checkpoint["Format.sha256"], sha(text); got != want {
		t.Errorf("golden campaign digest %s, docs/znsbench_full_output.txt digests to %s", got, want)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver holds the spreads to.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	sum := func(v ...float64) summary {
		q := quartiles(v)
		return summary{N: len(v), Q1: q[0], Median: q[1], Q3: q[2], Values: v}
	}
	steady := sum(1.00, 1.01, 0.99, 1.00, 1.00)
	for _, c := range []struct {
		name string
		cur  summary
		want verdict
	}{
		{"same", sum(1.02, 1.03, 1.01, 1.02, 1.02), unchanged},
		{"slower", sum(1.20, 1.21, 1.19, 1.20, 1.20), regression},
		{"faster", sum(0.80, 0.81, 0.79, 0.80, 0.80), better},
		{"noisy", sum(0.7, 1.3, 1.0, 0.8, 1.2), unresolved},
		{"noisy but all better", sum(0.3, 0.6, 0.5, 0.4, 0.7), better},
	} {
		if got, _ := judge(lower, steady, c.cur); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}
	higher := metricDef{Name: "sim_ops_per_s", Better: "higher", Bound: 0.10}
	if got, _ := judge(higher, steady, sum(0.80, 0.81, 0.79, 0.80, 0.80)); got != regression {
		t.Errorf("higher-is-better drop: verdict %d, want regression", got)
	}
}
