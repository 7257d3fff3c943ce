// Package stats provides the measurement primitives shared by all
// experiments: latency distributions with exact percentiles, log-bucketed
// histograms for long runs, and counter groups for byte/operation
// accounting.
//
// Percentile reporting follows the convention of the storage literature:
// P50/P90/P99/P999 computed by the nearest-rank method over the recorded
// samples.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"blockhead/internal/sim"
)

// chunkLen is the number of samples in one storage chunk (32 KiB). It is
// also the capacity RunMixed used to ask for up front, so a drive that never
// outgrows one chunk allocates what it always did.
const chunkLen = 4096

// radixMin is the sample count from which the sorted view is built by radix
// passes; below it the fixed cost of the digit histograms loses to
// slices.Sort (measured crossover: between 1 024 and 1 536 samples).
const radixMin = 1024

// Dist records a distribution of latency samples and computes summary
// statistics. The zero value is ready to use.
//
// Samples live in chunks: Add fills the last one and starts another when it
// is full, so recording never copies what is already held. A percentile
// query replaces the chunks with a single sorted one, which later Adds
// extend with fresh chunks and the next query sorts again.
type Dist struct {
	chunks [][]sim.Time
	n      int
	sum    sim.Time
	max    sim.Time
	min    sim.Time
	sorted bool // chunks is a single sorted chunk (or empty)
}

// NewDist returns an empty distribution with capacity hint n.
func NewDist(n int) *Dist {
	return &Dist{chunks: [][]sim.Time{make([]sim.Time, 0, min(n, chunkLen))}}
}

// Add records one sample.
func (d *Dist) Add(v sim.Time) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.sum += v
	last := len(d.chunks) - 1
	if last < 0 || len(d.chunks[last]) == cap(d.chunks[last]) {
		d.chunks = append(d.chunks, make([]sim.Time, 0, chunkLen))
		last++
	}
	d.chunks[last] = append(d.chunks[last], v)
	d.n++
	d.sorted = false
}

// Count reports the number of recorded samples.
func (d *Dist) Count() int { return d.n }

// Mean reports the arithmetic mean, or 0 with no samples.
func (d *Dist) Mean() sim.Time {
	if d.n == 0 {
		return 0
	}
	return d.sum / sim.Time(d.n)
}

// Max reports the largest sample, or 0 with no samples.
func (d *Dist) Max() sim.Time { return d.max }

// Min reports the smallest sample, or 0 with no samples.
func (d *Dist) Min() sim.Time {
	if d.n == 0 {
		return 0
	}
	return d.min
}

// Percentile reports the p-th percentile (0 < p <= 100) by nearest rank.
// It returns 0 with no samples.
func (d *Dist) Percentile(p float64) sim.Time {
	n := d.n
	if n == 0 {
		return 0
	}
	if !d.sorted {
		d.sort()
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.chunks[0][rank-1]
}

// sort replaces the chunks with one sorted chunk holding every sample.
func (d *Dist) sort() {
	var flat []sim.Time
	if d.n >= radixMin && d.max != d.min {
		flat = radixSorted(d.chunks, d.n, d.min, d.max)
	} else {
		flat = d.chunks[0]
		if len(d.chunks) > 1 {
			flat = slices.Concat(d.chunks...)
		}
		slices.Sort(flat)
	}
	d.chunks = [][]sim.Time{flat}
	d.sorted = true
}

// radixSorted returns the n samples held in chunks, all within [lo, hi], in
// ascending order, by least-significant-digit radix passes over the bytes of
// v - lo. The offset makes every key a non-negative number no wider than the
// span, so negative samples order correctly and the pass count follows the
// spread of the data (three passes for latencies within 16 ms of each
// other), not the width of sim.Time; the subtraction is done in uint64,
// where it is exact for any lo <= v. The first pass reads the chunks
// directly and releases each one as it goes, so no unsorted flat copy is
// ever made and at most two n-sample buffers are live at a time.
func radixSorted(chunks [][]sim.Time, n int, lo, hi sim.Time) []sim.Time {
	base := uint64(lo)
	passes := (bits.Len64(uint64(hi)-base) + 7) / 8
	var next [8][256]int // per pass: digit count, then the digit's next slot
	for _, c := range chunks {
		for _, v := range c {
			k := uint64(v) - base
			for p := 0; p < passes; p++ {
				next[p][byte(k>>(8*p))]++
			}
		}
	}
	for p := 0; p < passes; p++ {
		at := 0
		for digit, count := range next[p] {
			next[p][digit] = at
			at += count
		}
	}
	sorted := make([]sim.Time, n)
	for i, c := range chunks {
		for _, v := range c {
			digit := byte(uint64(v) - base)
			sorted[next[0][digit]] = v
			next[0][digit]++
		}
		chunks[i] = nil
	}
	var spare []sim.Time
	for p := 1; p < passes; p++ {
		if spare == nil {
			spare = make([]sim.Time, n)
		}
		for _, v := range sorted {
			digit := byte((uint64(v) - base) >> (8 * p))
			spare[next[p][digit]] = v
			next[p][digit]++
		}
		sorted, spare = spare, sorted
	}
	return sorted
}

// Summary bundles the statistics reported in experiment tables.
type Summary struct {
	Count int
	Mean  sim.Time
	P50   sim.Time
	P90   sim.Time
	P99   sim.Time
	P999  sim.Time
	Max   sim.Time
}

// Summary computes the full summary.
func (d *Dist) Summary() Summary {
	return Summary{
		Count: d.Count(),
		Mean:  d.Mean(),
		P50:   d.Percentile(50),
		P90:   d.Percentile(90),
		P99:   d.Percentile(99),
		P999:  d.Percentile(99.9),
		Max:   d.Max(),
	}
}

// String formats the summary with microsecond precision.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus max=%.1fus",
		s.Count, s.Mean.Micros(), s.P50.Micros(), s.P90.Micros(), s.P99.Micros(), s.P999.Micros(), s.Max.Micros())
}

// Reset discards all samples.
func (d *Dist) Reset() { *d = Dist{} }

// Histogram is a log2-bucketed latency histogram for runs too long to keep
// exact samples. Bucket i covers [2^i, 2^(i+1)) nanoseconds.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     sim.Time
	max     sim.Time
}

// Add records one sample (negative samples count into bucket 0).
func (h *Histogram) Add(v sim.Time) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// AddZeros records n zero samples at once: exactly what n calls of Add(0)
// record.
func (h *Histogram) AddZeros(n uint64) {
	h.count += n
	h.buckets[0] += n
}

func bucketOf(v sim.Time) int {
	if v <= 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(uint64(v))
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Max reports the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile reports an upper bound on the p-th percentile: the upper edge
// of the bucket holding the nearest-rank sample.
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.count) / 100))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return sim.Time(1) << uint(i+1)
		}
	}
	return h.max
}

// Delta returns the histogram of samples recorded since prev was captured.
// All fields but max are monotonic, so the subtraction is exact; max cannot
// be recovered from a cumulative pair, so the delta's max is the upper edge
// of its highest non-empty bucket (an upper bound), or the cumulative max
// when that bucket is the cumulative max's own bucket.
func (h Histogram) Delta(prev Histogram) Histogram {
	d := Histogram{count: h.count - prev.count, sum: h.sum - prev.sum}
	top := -1
	for i := range h.buckets {
		d.buckets[i] = h.buckets[i] - prev.buckets[i]
		if d.buckets[i] > 0 {
			top = i
		}
	}
	if top >= 0 {
		if bucketOf(h.max) == top {
			d.max = h.max
		} else {
			d.max = sim.Time(1) << uint(top+1)
		}
	}
	return d
}

// Counters tracks the byte- and operation-level accounting every device
// model exposes. Write amplification, PCIe traffic, and DRAM footprints in
// the experiment tables are all derived from these fields.
type Counters struct {
	// Host-visible traffic (what the application asked for).
	HostWritePages uint64
	HostReadPages  uint64

	// Flash-level traffic (what physically happened).
	FlashProgramPages uint64
	FlashReadPages    uint64
	BlockErases       uint64

	// GC work attributable to reclamation (subset of the flash counters).
	GCCopyPages uint64

	// Bytes crossing the host interface (PCIe). Simple-copy operations move
	// data without contributing here; that is the point of E10.
	PCIeBytes uint64
}

// WriteAmp reports flash programs per host write. Returns +Inf if data was
// programmed with no host writes, and 1.0 for an idle device.
func (c *Counters) WriteAmp() float64 {
	if c.HostWritePages == 0 {
		if c.FlashProgramPages == 0 {
			return 1.0
		}
		return math.Inf(1)
	}
	return float64(c.FlashProgramPages) / float64(c.HostWritePages)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.HostWritePages += other.HostWritePages
	c.HostReadPages += other.HostReadPages
	c.FlashProgramPages += other.FlashProgramPages
	c.FlashReadPages += other.FlashReadPages
	c.BlockErases += other.BlockErases
	c.GCCopyPages += other.GCCopyPages
	c.PCIeBytes += other.PCIeBytes
}

// Rate is a throughput helper: ops (or bytes) per virtual second.
func Rate(n uint64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// MiB converts bytes to MiB.
func MiB(b uint64) float64 { return float64(b) / (1 << 20) }
