package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"blockhead/internal/sim"
)

// refRank reads the nearest-rank p-th percentile off sorted samples.
func refRank(sorted []sim.Time, p float64) sim.Time {
	n := len(sorted)
	return sorted[min(max(int(math.Ceil(p*float64(n)/100)), 1), n)-1]
}

// checkDist compares d with the specification it must match — sort a copy
// of the samples with slices.Sort and read nearest ranks off it — Summary
// field by field, then Min and a sweep of other percentiles.
func checkDist(t *testing.T, d *Dist, samples []sim.Time) {
	t.Helper()
	n := len(samples)
	if n == 0 {
		if got := d.Summary(); got != (Summary{}) || d.Min() != 0 {
			t.Fatalf("Summary = %+v, Min = %d with no samples", got, d.Min())
		}
		return
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	var sum sim.Time
	for _, v := range sorted {
		sum += v
	}
	want := Summary{
		Count: n, Mean: sum / sim.Time(n),
		P50: refRank(sorted, 50), P90: refRank(sorted, 90),
		P99: refRank(sorted, 99), P999: refRank(sorted, 99.9),
		Max: sorted[n-1],
	}
	got := d.Summary()
	if got.Count != want.Count || got.Mean != want.Mean || got.Max != want.Max ||
		got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 || got.P999 != want.P999 {
		t.Fatalf("Summary = %+v, reference = %+v", got, want)
	}
	if d.Min() != sorted[0] {
		t.Fatalf("Min = %d, reference = %d", d.Min(), sorted[0])
	}
	for _, p := range []float64{0.001, 1, 25, 33.3, 75, 99.99, 100} {
		if got, want := d.Percentile(p), refRank(sorted, p); got != want {
			t.Fatalf("Percentile(%v) = %d, reference = %d (n=%d)", p, got, want, n)
		}
	}
}

// TestDistMatchesSortedReference is the differential test for the chunked
// storage and the radix selection: sizes either side of the chunk and radix
// thresholds, the sample shapes that break a naive radix (negative values,
// spans wider than the digits usually cover, all-equal input), and the ones
// that stress selection: a 16 ms outlier that puts nearly every sample in one
// top-digit bucket, long runs of ties that end exactly at the p50/p90/p99/
// p999 ranks, and a dense cluster under a far outlier, whose rank buckets
// stay larger than radixMin for more than one narrowing digit.
func TestDistMatchesSortedReference(t *testing.T) {
	latency := func(r *rand.Rand) sim.Time { return sim.Time(20_000 + r.ExpFloat64()*80_000) }
	shapes := []struct {
		name string
		gen  func(r *rand.Rand, i, n int) sim.Time
	}{
		{"latencies", func(r *rand.Rand, _, _ int) sim.Time { return latency(r) }},
		{"all-equal", func(*rand.Rand, int, int) sim.Time { return 77 }},
		{"negative", func(r *rand.Rand, _, _ int) sim.Time { return sim.Time(r.Int63n(2_000_000)) - 1_000_000 }},
		{"all-negative", func(r *rand.Rand, _, _ int) sim.Time { return -1 - sim.Time(r.Int63n(1<<20)) }},
		{"span-2^41", func(r *rand.Rand, _, _ int) sim.Time { return sim.Time(r.Int63n(1 << 41)) }},
		{"span-full", func(r *rand.Rand, _, _ int) sim.Time { return sim.Time(r.Uint64()) }},
		{"two-values", func(r *rand.Rand, _, _ int) sim.Time { return sim.Time(r.Intn(2)) << 45 }},
		{"outlier-16ms", func(r *rand.Rand, i, n int) sim.Time {
			if i == n/2 {
				return 16_000_000
			}
			return latency(r)
		}},
		{"ties-at-ranks", func(_ *rand.Rand, i, n int) sim.Time {
			// Sample i holds the number of reported ranks at or below
			// i, so each tie run ends exactly at one of those ranks.
			level := 0
			for _, p := range []float64{50, 90, 99, 99.9} {
				if i >= int(math.Ceil(p*float64(n)/100)) {
					level++
				}
			}
			return 5_000 + sim.Time(level)*1_000_003
		}},
		{"dense-under-2^40", func(r *rand.Rand, i, _ int) sim.Time {
			if i == 0 {
				return 1 << 40
			}
			return sim.Time(r.Int63n(1 << 14))
		}},
	}
	sizes := []int{0, 1, 2, radixMin - 1, radixMin, chunkLen - 1, chunkLen, chunkLen + 1, 400_000}
	for _, sh := range shapes {
		for _, n := range sizes {
			if n == 400_000 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/n%d", sh.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42 + int64(n)))
				var d Dist
				samples := make([]sim.Time, n)
				for i := range samples {
					samples[i] = sh.gen(rng, i, n)
				}
				rng.Shuffle(n, func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
				for _, v := range samples {
					d.Add(v)
				}
				checkDist(t, &d, samples)
				checkDist(t, &d, samples) // a query leaves the chunks as they were
			})
		}
	}
}

// TestDistAddAfterQueryResorts interleaves Adds with queries at sizes where
// the samples fill one chunk or several and are sorted in a copy or
// selected, so samples added after a query (including a new minimum) count
// in the next one.
func TestDistAddAfterQueryResorts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDist(16)
	var samples []sim.Time
	for _, batch := range []int{3, 40, radixMin, 5, chunkLen, 2*chunkLen + 1, 1} {
		for i := 0; i < batch; i++ {
			v := sim.Time(rng.Int63n(1<<30)) - sim.Time(len(samples))*1000
			samples = append(samples, v)
			d.Add(v)
		}
		checkDist(t, d, samples)
	}
}

// TestDistResetThenReuse checks that nothing of the old samples — the
// extremes included — survives a Reset.
func TestDistResetThenReuse(t *testing.T) {
	d := NewDist(4096)
	for i := 0; i < 3*chunkLen; i++ {
		d.Add(sim.Time(1_000_000 - i))
	}
	_ = d.Summary()
	d.Reset()
	checkDist(t, d, nil)
	samples := []sim.Time{5, -3, 9}
	for _, v := range samples {
		d.Add(v)
	}
	checkDist(t, d, samples)
}

// TestDistAddDoesNotAllocatePerSample pins the recording path: the only
// allocation is a fresh chunk once per chunkLen samples (plus the rare
// regrowth of the chunk list), never a copy of what is already held.
func TestDistAddDoesNotAllocatePerSample(t *testing.T) {
	var d Dist
	const runs = 64
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < chunkLen; i++ {
			d.Add(sim.Time(i))
		}
	})
	// One chunk per run; the chunk list doubles a handful of times in all.
	if allocs > 1.2 {
		t.Errorf("%.2f allocs per %d samples, want one chunk (plus list regrowth)", allocs, chunkLen)
	}
	if want := (runs + 1) * chunkLen; d.Count() != want {
		t.Errorf("Count = %d, want %d", d.Count(), want)
	}
}

// TestDistSummaryDoesNotAllocatePerSample pins the query path: Summary
// selects its four ranks from the chunks as they stand, so what it allocates
// (the scratch for small rank buckets, at most 4 x radixMin samples) does not
// grow with the sample count. Sorting the samples took two n-sample buffers
// at the first query.
func TestDistSummaryDoesNotAllocatePerSample(t *testing.T) {
	const bound = 64 << 10
	for _, n := range []int{100_000, 400_000} {
		for _, outlier := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			var d Dist
			for i := 0; i < n; i++ {
				d.Add(sim.Time(20_000 + rng.ExpFloat64()*80_000))
			}
			if outlier {
				d.Add(16_000_000)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_ = d.Summary()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
				t.Errorf("n=%d outlier=%v: Summary allocates %d B, want < %d", n, outlier, got, bound)
			}
		}
	}
}

// BenchmarkDistAddSummary is the stats rung of the layer ladder: record n
// latency-shaped samples and summarise them once, as one RunMixed drive
// does (1.5M is the size of mixed_rw's set-up drive). ns/op, B/op and
// allocs/op are per sample.
func BenchmarkDistAddSummary(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"4k", 4096}, {"400k", 400_000}, {"1.5M", 1_500_000}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			samples := make([]sim.Time, bc.n)
			for i := range samples {
				samples[i] = sim.Time(20_000 + rng.ExpFloat64()*80_000)
			}
			var sink Summary
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				batch := samples[:min(bc.n, b.N-done)]
				d := NewDist(4096)
				for _, v := range batch {
					d.Add(v)
				}
				sink = d.Summary()
				done += len(batch)
			}
			_ = sink
		})
	}
}
