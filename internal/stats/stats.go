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

// radixMin is the most samples (all of them, or the bucket holding a rank)
// a query sorts with slices.Sort rather than narrowing by another digit.
const radixMin = 1024

// digitBits is the width of one selection digit (2 048 buckets).
const digitBits = 11

// Dist records a distribution of latency samples and computes summary
// statistics. The zero value is ready to use.
//
// Samples live in chunks: Add fills the last one and starts another when it
// is full, so recording never copies what is already held. A percentile
// query selects its ranks from the chunks as they stand (nearestRanks): one
// pass per digit it narrows, at most 32 KiB allocated whatever the count.
type Dist struct {
	chunks [][]sim.Time
	n      int
	sum    sim.Time
	max    sim.Time
	min    sim.Time
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
func (d *Dist) Percentile(p float64) sim.Time { return d.nearestRanks(p)[0] }

// nearestRanks returns the nearest-rank ps[r]-th percentiles for up to four
// ps (zeros with no samples). At most radixMin samples are sorted in a copy;
// more by exact radix selection on the key v - min, which in uint64 is
// exact for any min <= v and no wider than the span, so negative samples
// order correctly and the digit count follows the data's spread. Each round
// is one pass over the chunks: the first counts every key's top digit, each
// later one serves every open rank r, whose bucket holds the n[r] keys with
// k>>shift == prefix[r] and r's want[r]-th smallest. A bucket of more than
// radixMin keys is narrowed by counting its next digit, a smaller one is
// gathered and sorted (never more than 4 x radixMin samples in all), and
// one narrowed to the last digit is a single value.
func (d *Dist) nearestRanks(ps ...float64) (out [4]sim.Time) {
	if d.n == 0 {
		return out
	}
	var want, n [4]int
	var prefix [4]uint64
	for r, p := range ps {
		want[r], n[r] = min(max(int(math.Ceil(p*float64(d.n)/100)), 1), d.n), d.n
	}
	if d.n <= radixMin {
		flat := slices.Concat(d.chunks...)
		slices.Sort(flat)
		for r := range ps {
			out[r] = flat[want[r]-1]
		}
		return out
	}
	base := uint64(d.min)
	shift := uint(bits.Len64(uint64(d.max) - base))
	top := shift - min(shift, digitBits) // the first round's digit is k>>top
	var hist [4][1 << digitBits]int
	var owners [1 << digitBits]uint8 // per top digit: the open ranks whose bucket lies in it
	var gather [4][]sim.Time
	open := uint8(1)<<len(ps) - 1
	for round := 0; open != 0; round++ {
		next := shift - min(shift, digitBits)
		mask := uint64(1)<<(shift-next) - 1
		clear(owners[:])
		for m := open; m != 0; m &= m - 1 {
			r := bits.TrailingZeros8(m)
			if n[r] <= radixMin {
				gather[r] = make([]sim.Time, 0, n[r])
			} else {
				clear(hist[r][:])
			}
			owners[prefix[r]>>(top-shift)] |= 1 << r
		}
		for _, c := range d.chunks {
			if round == 0 {
				for _, v := range c {
					hist[0][((uint64(v)-base)>>top)&(1<<digitBits-1)]++
				}
				continue
			}
			for _, v := range c {
				k := uint64(v) - base
				for m := owners[(k>>top)&(1<<digitBits-1)]; m != 0; m &= m - 1 {
					if r := bits.TrailingZeros8(m); prefix[r] != k>>shift {
						continue
					} else if n[r] > radixMin {
						hist[r][(k>>next)&mask]++
					} else {
						gather[r] = append(gather[r], v)
					}
				}
			}
		}
		for m := open; m != 0; m &= m - 1 {
			r := bits.TrailingZeros8(m)
			if n[r] <= radixMin {
				slices.Sort(gather[r])
				out[r], open = gather[r][want[r]-1], open&^(1<<r)
				continue
			}
			h := &hist[r*min(round, 1)] // the first round counted once, for every rank
			digit := 0
			for ; want[r] > h[digit]; digit++ {
				want[r] -= h[digit]
			}
			prefix[r], n[r] = prefix[r]<<(shift-next)|uint64(digit), h[digit]
			if next == 0 {
				out[r], open = sim.Time(base+prefix[r]), open&^(1<<r)
			}
		}
		shift = next
	}
	return out
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

// Summary computes the full summary; its four percentiles share one
// selection.
func (d *Dist) Summary() Summary {
	p := d.nearestRanks(50, 90, 99, 99.9)
	return Summary{Count: d.Count(), Mean: d.Mean(), P50: p[0], P90: p[1], P99: p[2], P999: p[3], Max: d.Max()}
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
	max     sim.Time
}

// Add records one sample (negative samples count into bucket 0).
func (h *Histogram) Add(v sim.Time) {
	h.count++
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
	d := Histogram{count: h.count - prev.count}
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
