// Windowed-SLO fixtures: the shapes internal/telemetry/window.go and
// slo.go must keep. Verdict rendering must not leak map iteration order
// into its output.
package telemetry

import "sort"

// verdictOrderLeak renders named verdicts in map order — the report and
// the JSON dumps must never do this.
func verdictOrderLeak(verdicts map[string]bool) []string {
	var out []string
	for name := range verdicts { // want `\[determinism\] iteration over map verdicts`
		out = append(out, name)
	}
	return out
}

// verdictsSorted is the canonical fix: collect, sort, then render.
func verdictsSorted(verdicts map[string]bool) []string {
	names := make([]string, 0, len(verdicts))
	for name := range verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
