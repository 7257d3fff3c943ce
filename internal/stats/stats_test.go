package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"blockhead/internal/sim"
)

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Count() != 0 || d.Mean() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Error("empty Dist must report zeros")
	}
	if d.Percentile(99) != 0 {
		t.Error("empty Dist percentile must be 0")
	}
}

func TestDistBasic(t *testing.T) {
	d := NewDist(8)
	for _, v := range []sim.Time{30, 10, 20, 40} {
		d.Add(v)
	}
	if d.Count() != 4 {
		t.Errorf("Count = %d, want 4", d.Count())
	}
	if d.Mean() != 25 {
		t.Errorf("Mean = %d, want 25", d.Mean())
	}
	if d.Min() != 10 || d.Max() != 40 {
		t.Errorf("Min/Max = %d/%d, want 10/40", d.Min(), d.Max())
	}
	if p := d.Percentile(50); p != 20 {
		t.Errorf("P50 = %d, want 20", p)
	}
	if p := d.Percentile(100); p != 40 {
		t.Errorf("P100 = %d, want 40", p)
	}
	if p := d.Percentile(1); p != 10 {
		t.Errorf("P1 = %d, want 10", p)
	}
}

func TestDistAddAfterPercentile(t *testing.T) {
	var d Dist
	d.Add(3)
	d.Add(1)
	_ = d.Percentile(50)
	d.Add(2) // must count in the next query
	if p := d.Percentile(100); p != 3 {
		t.Errorf("P100 after interleaved Add = %d, want 3", p)
	}
	if p := d.Percentile(50); p != 2 {
		t.Errorf("P50 after interleaved Add = %d, want 2", p)
	}
}

func TestDistSummary(t *testing.T) {
	var d Dist
	for i := 1; i <= 1000; i++ {
		d.Add(sim.Time(i))
	}
	s := d.Summary()
	if s.Count != 1000 || s.P50 != 500 || s.P99 != 990 || s.P999 != 999 || s.Max != 1000 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String empty")
	}
}

func TestDistReset(t *testing.T) {
	var d Dist
	d.Add(5)
	d.Reset()
	if d.Count() != 0 || d.Mean() != 0 {
		t.Error("Reset did not clear the distribution")
	}
}

// Property: Percentile is monotone in p and bounded by Min/Max.
func TestDistPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		for _, v := range raw {
			d.Add(sim.Time(v))
		}
		prev := sim.Time(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev || v < d.Min() || v > d.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: nearest-rank P100 is exactly the max and P50 matches a direct
// computation on the sorted data.
func TestDistNearestRankProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		vals := make([]int, len(raw))
		for i, v := range raw {
			d.Add(sim.Time(v))
			vals[i] = int(v)
		}
		sort.Ints(vals)
		if d.Percentile(100) != sim.Time(vals[len(vals)-1]) {
			return false
		}
		rank := int(math.Ceil(50 * float64(len(vals)) / 100))
		return d.Percentile(50) == sim.Time(vals[rank-1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 || h.Count() != 0 {
		t.Error("empty histogram must report zeros")
	}
	for i := 0; i < 100; i++ {
		h.Add(1000) // bucket [512, 1024) -> upper edge 1024
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if p := h.Percentile(50); p != 1024 {
		t.Errorf("P50 = %d, want 1024 (bucket upper edge)", p)
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d, want 1000", h.Max())
	}
}

func TestHistogramNonPositive(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(-5)
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
	if p := h.Percentile(100); p != 2 {
		t.Errorf("P100 = %d, want 2 (bucket 0 upper edge)", p)
	}
}

// Property: histogram percentile upper bound is >= the true nearest-rank
// percentile of the samples.
func TestHistogramUpperBoundProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var d Dist
		for _, v := range raw {
			h.Add(sim.Time(v))
			d.Add(sim.Time(v))
		}
		for _, p := range []float64{50, 90, 99} {
			if h.Percentile(p) < d.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountersWriteAmp(t *testing.T) {
	c := Counters{HostWritePages: 100, FlashProgramPages: 250}
	if got := c.WriteAmp(); got != 2.5 {
		t.Errorf("WriteAmp = %v, want 2.5", got)
	}
	idle := Counters{}
	if got := idle.WriteAmp(); got != 1.0 {
		t.Errorf("idle WriteAmp = %v, want 1", got)
	}
	weird := Counters{FlashProgramPages: 10}
	if !math.IsInf(weird.WriteAmp(), 1) {
		t.Error("WriteAmp with zero host writes must be +Inf")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{HostWritePages: 1, HostReadPages: 2, FlashProgramPages: 3,
		FlashReadPages: 4, BlockErases: 5, GCCopyPages: 6, PCIeBytes: 7}
	b := a
	a.Add(b)
	if a.HostWritePages != 2 || a.PCIeBytes != 14 || a.GCCopyPages != 12 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestRate(t *testing.T) {
	if r := Rate(1000, sim.Second); r != 1000 {
		t.Errorf("Rate = %v, want 1000", r)
	}
	if r := Rate(10, 0); r != 0 {
		t.Errorf("Rate with zero elapsed = %v, want 0", r)
	}
}

func TestMiB(t *testing.T) {
	if MiB(1<<20) != 1 {
		t.Error("MiB(1MiB) != 1")
	}
}
