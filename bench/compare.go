package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// resultFile is what a run of the whole set writes (-out) and what
// -compare reads: the host block, every run, and per (workload, metric)
// the median and quartiles over the repeats.
type resultFile struct {
	Schema   string                        `json:"schema"`
	Manifest manifest                      `json:"manifest"`
	Runs     []result                      `json:"runs"`
	Summary  map[string]map[string]summary `json:"summary"` // workload -> metric -> spread
}

// summary is one metric's spread over the repeats of one workload. The
// values themselves stay in Runs; readResultFile summarizes them again.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"-"`
}

// spread is the interquartile range as a share of the median: what the
// driver holds against each metric's bound.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func summarize(runs []result) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]summary{}
		}
		for name, m := range r.Metrics {
			s := out[r.Workload][name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			out[r.Workload][name] = s
		}
	}
	for _, byMetric := range out {
		for name, s := range byMetric {
			q := quartiles(s.Values)
			s.N, s.Q1, s.Median, s.Q3 = len(s.Values), q[0], q[1], q[2]
			byMetric[name] = s
		}
	}
	return out
}

// write keeps the file diffable without spending a line per number: one
// run per line, one workload's summary per line.
func (f resultFile) write(path string) error {
	var firstErr error
	compact := func(v any) string {
		j, err := json.Marshal(v)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return string(j)
	}
	runs := make([]string, len(f.Runs))
	for i, r := range f.Runs {
		runs[i] = compact(r)
	}
	var sums []string
	for _, w := range sortedKeys(f.Summary) {
		sums = append(sums, compact(w)+": "+compact(f.Summary[w]))
	}
	out := fmt.Sprintf("{\n\"schema\": %s,\n\"manifest\": %s,\n\"runs\": [\n%s\n],\n\"summary\": {\n%s\n}\n}\n",
		compact(f.Schema), compact(f.Manifest), strings.Join(runs, ",\n"), strings.Join(sums, ",\n"))
	if firstErr != nil {
		return firstErr
	}
	return writeFile(path, []byte(out))
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	f.Summary = summarize(f.Runs)
	return f, nil
}

// verdict holds one (workload, metric) pairing against its bound.
type verdict int

const (
	unchanged verdict = iota
	better
	unresolved
	regression
)

// judge applies a metric's bound to the old and new spreads. worse is how
// far the new median moved in the bad direction, as a share of the old one.
// A pairing whose run-to-run spread exceeds the bound is unresolved, not
// unchanged, unless every new run reads better than every old run.
func judge(def metricDef, old, cur summary) (v verdict, worse float64) {
	if old.Median == 0 {
		return unresolved, 0
	}
	worse = (cur.Median - old.Median) / old.Median
	if def.Better == "higher" {
		worse = -worse
	}
	if max(old.spread(), cur.spread()) > def.Bound {
		if allBetter(def, old.Values, cur.Values) {
			return better, worse
		}
		return unresolved, worse
	}
	switch {
	case worse > def.Bound:
		return regression, worse
	case worse < -def.Bound:
		return better, worse
	}
	return unchanged, worse
}

func allBetter(def metricDef, old, cur []float64) bool {
	for _, c := range cur {
		for _, o := range old {
			if (def.Better == "lower" && c >= o) || (def.Better == "higher" && c <= o) {
				return false
			}
		}
	}
	return len(old) > 0 && len(cur) > 0
}

// compareFiles prints one row per workload and reports whether any metric
// regressed or any run was incorrect.
func compareFiles(w io.Writer, oldPath, newPath string) (ok bool, err error) {
	old, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	if a, b := old.Manifest, cur.Manifest; a.Scale != b.Scale || a.Geometry != b.Geometry || a.Seconds != b.Seconds {
		return false, fmt.Errorf("not comparable: %s/%s/%gs against %s/%s/%gs", a.Scale, a.Geometry, a.Seconds, b.Scale, b.Geometry, b.Seconds)
	}
	fmt.Fprintf(w, "old: %s  rev %s  %s %s/%s nproc=%d\n", oldPath, old.Manifest.Revision, old.Manifest.GoVersion, old.Manifest.OS, old.Manifest.Arch, old.Manifest.NProc)
	fmt.Fprintf(w, "new: %s  rev %s  %s %s/%s nproc=%d\n", newPath, cur.Manifest.Revision, cur.Manifest.GoVersion, cur.Manifest.OS, cur.Manifest.Arch, cur.Manifest.NProc)
	fmt.Fprintf(w, "%-16s", "workload")
	for _, def := range endToEnd {
		fmt.Fprintf(w, " %-26s", fmt.Sprintf("%s (±%.0f%%)", def.Name, def.Bound*100))
	}
	fmt.Fprintln(w, " correct")
	ok = true
	names := [...]string{unchanged: "same", better: "better", unresolved: "UNRESOLVED", regression: "REGRESSION"}
	for _, def := range workloads {
		o, c := old.Summary[def.name], cur.Summary[def.name]
		if o == nil || c == nil {
			continue
		}
		fmt.Fprintf(w, "%-16s", def.name)
		for _, md := range endToEnd {
			v, worse := judge(md, o[md.Name], c[md.Name])
			if v == regression {
				ok = false
			}
			fmt.Fprintf(w, " %-26s", fmt.Sprintf("%+.1f%% %s (n=%d,%d)", worse*100, names[v], o[md.Name].N, c[md.Name].N))
		}
		bad := 0
		for _, r := range cur.Runs {
			if r.Workload == def.name && !r.Correct {
				bad++
			}
		}
		if bad > 0 {
			ok = false
			fmt.Fprintf(w, " %d INCORRECT\n", bad)
		} else {
			fmt.Fprintln(w, " yes")
		}
	}
	fmt.Fprintln(w, strings.TrimSpace(`
percentages are how far the new median moved in the worse direction; a pairing whose
run-to-run spread (IQR/median) exceeds its bound is UNRESOLVED, not the same.`))
	return ok, nil
}
