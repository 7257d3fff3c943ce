// Package critpath fixtures: the critical-path recorder's contracts. The
// package is sim-core (simCoreSuffixes), so the determinism and tickunit
// rules apply here.
package critpath

import (
	"sort"
	"time"
)

// dumpOrderLeak renders the per-phase path table in map order — the
// report section and /critpath.json must never do this.
func dumpOrderLeak(paths map[string]int64) []string {
	var out []string
	for name := range paths { // want `\[determinism\] iteration over map paths`
		out = append(out, name)
	}
	return out
}

// dumpSorted is the canonical fix: collect, sort, then render.
func dumpSorted(paths map[string]int64) []string {
	names := make([]string, 0, len(paths))
	for name := range paths {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// wallDeadline smuggles a wall-clock duration into tick arithmetic.
func wallDeadline(ticks int64) int64 {
	return ticks + int64(5*time.Millisecond) // want `\[tickunit\] time.Duration in a sim-core package`
}
