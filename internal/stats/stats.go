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

// chunkLen is the number of samples in one storage chunk: 16 KiB of narrow
// samples, 32 KiB of wide ones. It is also the capacity RunMixed asks
// NewDist for up front.
const chunkLen = 4096

// radixMin is the most samples (all of them, or the bucket holding a rank)
// a query sorts with slices.Sort rather than narrowing by another digit.
const radixMin = 1024

// digitBits is the width of one selection digit (2 048 buckets).
const digitBits = 11

// Dist records a distribution of latency samples and computes summary
// statistics. The zero value is ready to use.
//
// Samples live in chunks, in one of two stores: a sample in [0, 2^32) ns
// (up to 4.29 s, every latency a drive normally sees) is narrow and takes
// four bytes; any other sample (negative, or 2^32 ns and up) is wide and
// keeps its eight. Add fills the last chunk of its store and starts another
// when it is full, so recording never copies what is already held. A
// percentile query selects its ranks from both stores as they stand
// (nearestRanks): one pass per digit it narrows, at most 32 KiB allocated
// whatever the count.
type Dist struct {
	narrow [][]uint32
	wide   [][]sim.Time
	n      int
	sum    sim.Time
	max    sim.Time
	min    sim.Time
}

// sample is the element type of one store.
type sample interface{ uint32 | sim.Time }

// NewDist returns an empty distribution with capacity hint n.
func NewDist(n int) *Dist {
	return &Dist{narrow: [][]uint32{make([]uint32, 0, min(n, chunkLen))}}
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
	if uint64(v) < 1<<32 {
		push(&d.narrow, uint32(v))
	} else {
		push(&d.wide, v)
	}
	d.n++
}

// push appends v to the last chunk of a store, starting a chunk when that
// one is full.
func push[T sample](chunks *[][]T, v T) {
	c := *chunks
	last := len(c) - 1
	if last < 0 || len(c[last]) == cap(c[last]) {
		c = append(c, make([]T, 0, chunkLen))
		*chunks = c
		last++
	}
	c[last] = append(c[last], v)
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

// selection is one nearestRanks query's state between its passes: rank r's
// bucket holds the n[r] keys with k>>shift == prefix[r], and owners maps a
// top digit to the open ranks whose bucket lies in it.
type selection struct {
	base             uint64
	top, shift, next uint
	prefix           [4]uint64
	n                [4]int
	owners           [1 << digitBits]uint8
	hist             [4][1 << digitBits]int
	gather           [4][]sim.Time
}

// nearestRanks returns the nearest-rank ps[r]-th percentiles for up to four
// ps (zeros with no samples). At most radixMin samples are sorted in a copy;
// more by exact radix selection on the key v - min, which in uint64 is
// exact for any min <= v and no wider than the span, so negative samples
// order correctly and the digit count follows the data's spread. Each round
// is one pass over both stores: the first counts every key's top digit (in
// hist[0], for every rank), each later one serves every open rank r, whose
// bucket holds r's want[r]-th smallest key. A bucket of more than radixMin
// keys is narrowed by counting its next digit, a smaller one is gathered
// and sorted (never more than 4 x radixMin samples in all), and one
// narrowed to the last digit is a single value.
func (d *Dist) nearestRanks(ps ...float64) (out [4]sim.Time) {
	if d.n == 0 {
		return out
	}
	var want [4]int
	var s selection
	for r, p := range ps {
		want[r], s.n[r] = min(max(int(math.Ceil(p*float64(d.n)/100)), 1), d.n), d.n
	}
	if d.n <= radixMin {
		flat := appendAll(appendAll(make([]sim.Time, 0, d.n), d.narrow), d.wide)
		slices.Sort(flat)
		for r := range ps {
			out[r] = flat[want[r]-1]
		}
		return out
	}
	s.base = uint64(d.min)
	s.shift = uint(bits.Len64(uint64(d.max) - s.base))
	s.top = s.shift - min(s.shift, digitBits) // the first round's digit is k>>top
	open := uint8(1)<<len(ps) - 1
	for round := 0; open != 0; round++ {
		s.next = s.shift - min(s.shift, digitBits)
		if round == 0 {
			countTop(&s, d.narrow)
			countTop(&s, d.wide)
		} else {
			clear(s.owners[:])
			for m := open; m != 0; m &= m - 1 {
				r := bits.TrailingZeros8(m)
				if s.n[r] <= radixMin {
					s.gather[r] = make([]sim.Time, 0, s.n[r])
				} else {
					clear(s.hist[r][:])
				}
				s.owners[s.prefix[r]>>(s.top-s.shift)] |= 1 << r
			}
			filter(&s, d.narrow)
			filter(&s, d.wide)
		}
		for m := open; m != 0; m &= m - 1 {
			r := bits.TrailingZeros8(m)
			if s.n[r] <= radixMin {
				slices.Sort(s.gather[r])
				out[r], open = s.gather[r][want[r]-1], open&^(1<<r)
				continue
			}
			h := &s.hist[r*min(round, 1)] // the first round counted once, for every rank
			digit := 0
			for ; want[r] > h[digit]; digit++ {
				want[r] -= h[digit]
			}
			s.prefix[r], s.n[r] = s.prefix[r]<<(s.shift-s.next)|uint64(digit), h[digit]
			if s.next == 0 {
				out[r], open = sim.Time(s.base+s.prefix[r]), open&^(1<<r)
			}
		}
		s.shift = s.next
	}
	return out
}

// appendAll appends every sample of a store to dst.
func appendAll[T sample](dst []sim.Time, chunks [][]T) []sim.Time {
	for _, c := range chunks {
		for _, v := range c {
			dst = append(dst, sim.Time(v))
		}
	}
	return dst
}

// countTop is a selection's first pass over one store: it counts every
// key's top digit into hist[0].
func countTop[T sample](s *selection, chunks [][]T) {
	h, base, top := &s.hist[0], s.base, s.top
	for _, c := range chunks {
		for _, v := range c {
			h[((uint64(v)-base)>>top)&(1<<digitBits-1)]++
		}
	}
}

// filter is a selection's later pass over one store: a key in an open
// rank's bucket counts into that rank's next digit, or is gathered when the
// bucket is at most radixMin keys.
func filter[T sample](s *selection, chunks [][]T) {
	base, top, shift, next := s.base, s.top, s.shift, s.next
	mask := uint64(1)<<(shift-next) - 1
	for _, c := range chunks {
		for _, v := range c {
			k := uint64(v) - base
			for m := s.owners[(k>>top)&(1<<digitBits-1)]; m != 0; m &= m - 1 {
				if r := bits.TrailingZeros8(m); s.prefix[r] != k>>shift {
					continue
				} else if s.n[r] > radixMin {
					s.hist[r][(k>>next)&mask]++
				} else {
					s.gather[r] = append(s.gather[r], sim.Time(v))
				}
			}
		}
	}
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
