package stats

import (
	"fmt"
	"math"
	"math/rand"
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
// storage and the radix sort: sizes either side of the chunk and radix
// thresholds, and the sample shapes that break a naive radix (negative
// values, spans wider than the digits usually cover, all-equal input).
func TestDistMatchesSortedReference(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(r *rand.Rand) sim.Time
	}{
		{"latencies", func(r *rand.Rand) sim.Time { return sim.Time(20_000 + r.ExpFloat64()*80_000) }},
		{"all-equal", func(*rand.Rand) sim.Time { return 77 }},
		{"negative", func(r *rand.Rand) sim.Time { return sim.Time(r.Int63n(2_000_000)) - 1_000_000 }},
		{"all-negative", func(r *rand.Rand) sim.Time { return -1 - sim.Time(r.Int63n(1<<20)) }},
		{"span-2^41", func(r *rand.Rand) sim.Time { return sim.Time(r.Int63n(1 << 41)) }},
		{"span-full", func(r *rand.Rand) sim.Time { return sim.Time(r.Uint64()) }},
		{"two-values", func(r *rand.Rand) sim.Time { return sim.Time(r.Intn(2)) << 45 }},
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
					samples[i] = sh.gen(rng)
					d.Add(samples[i])
				}
				checkDist(t, &d, samples)
				checkDist(t, &d, samples) // a second query reads the same sorted view
			})
		}
	}
}

// TestDistAddAfterQueryResorts interleaves Adds with queries at sizes where
// the sorted view is one chunk, several, and radix-built, so samples added
// after a query (including a new minimum) land in the next sorted view.
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

// BenchmarkDistAddSummary is the stats rung of the layer ladder: record n
// latency-shaped samples and summarise them once, as one RunMixed drive
// does. ns/op and allocs/op are per sample.
func BenchmarkDistAddSummary(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"4k", 4096}, {"400k", 400_000}} {
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
