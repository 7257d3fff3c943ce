// Package exemplar fixtures: the tail-exemplar reservoir's contracts. The
// package is sim-core (simCoreSuffixes), so the determinism and tickunit
// rules apply here.
package exemplar

import (
	"sort"
	"time"
)

// worstOrderLeak merges per-tenant worst-K sets in map order — the
// "slowest IOs" section and /exemplars.json must never do this: the
// report is compared byte for byte across runs.
func worstOrderLeak(heaps map[int][]int64) []int64 {
	var out []int64
	for _, h := range heaps { // want `\[determinism\] iteration over map heaps`
		out = append(out, h...)
	}
	return out
}

// worstSorted is the canonical fix: collect the tenant keys, sort them,
// then merge in sorted-tenant order.
func worstSorted(heaps map[int][]int64) []int64 {
	tenants := make([]int, 0, len(heaps))
	for t := range heaps {
		tenants = append(tenants, t)
	}
	sort.Ints(tenants)
	var out []int64
	for _, t := range tenants {
		out = append(out, heaps[t]...)
	}
	return out
}

// admitDeadline smuggles a wall-clock duration into the latency admission
// threshold — exemplar latencies are virtual-time ticks.
func admitDeadline(total int64) bool {
	return total > int64(time.Millisecond) // want `\[tickunit\] time.Duration in a sim-core package`
}
