package hostftl

import (
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// femu256 is the repository benchmark's geometry: 8 ch x 8 LUN x 64 blocks x
// 256 pages, 1 Mi pages — mapping tables far larger than any cache.
var femu256 = flash.Geometry{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1,
	BlocksPerLUN: 64, PagesPerBlock: 256, PageSize: 4096}

// agedStack builds a host FTL over 4-block zones on geom, fills it, and ages
// it with one and a half capacities of uniform random overwrites, returning
// it with the key stream and clock to carry on from: every further write
// pays its amortized share of reclamation.
func agedStack(tb testing.TB, geom flash.Geometry, cfg Config) (*FTL, *workload.Uniform, sim.Time) {
	tb.Helper()
	dev, err := zns.New(zns.Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4, MaxActive: 14})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := New(dev, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n := f.CapacityPages()
	var at sim.Time
	for lpn := int64(0); lpn < n; lpn++ {
		if at, err = f.Write(at, lpn, nil); err != nil {
			tb.Fatal(err)
		}
	}
	keys := workload.NewUniform(workload.NewSource(1), n)
	for i := int64(0); i < n+n/2; i++ {
		if at, err = f.Write(at, keys.Next(), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return f, keys, at
}

// BenchmarkHostFTLReclaimWrite measures uniform random overwrites on an aged
// femu256 stack, as the zns_host workload drives it: the per-write cost
// including its share of victim relocation (copies/op) and zone resets.
func BenchmarkHostFTLReclaimWrite(b *testing.B) {
	f, keys, at := agedStack(b, femu256, Config{OPFraction: 0.07})
	copies := f.remaps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if at, err = f.Write(at, keys.Next(), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.remaps-copies)/float64(b.N), "copies/op")
}

// TestReclaimDoesNotAllocate pins a reclaiming host write — victim pick,
// relocation through the reusable scratch, reset, the free-zone ring — at
// zero allocations in every relocation mode, and with a MaintenanceStep
// pacing reclamation after each write.
func TestReclaimDoesNotAllocate(t *testing.T) {
	geom := flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096}
	for _, c := range []struct {
		name  string
		cfg   Config
		paced bool
	}{
		{"inline", Config{}, false},
		{"incremental", Config{GCMode: GCIncremental}, false},
		{"simple-copy", Config{UseSimpleCopy: true}, false},
		{"maintenance-step", Config{GCMode: GCIncremental, UseSimpleCopy: true}, true},
	} {
		f, keys, at := agedStack(t, geom, c.cfg) // the warm-up
		resets, copies := f.gcResets, f.remaps
		allocs := testing.AllocsPerRun(20000, func() {
			at, _ = f.Write(at, keys.Next(), nil)
			if c.paced {
				f.MaintenanceStep(at, 2, 12)
			}
		})
		if f.gcResets == resets || f.remaps == copies {
			t.Fatalf("%s: no zone was reclaimed during the measured writes", c.name)
		}
		if allocs != 0 {
			t.Errorf("%s: a reclaiming write allocates %.4f times per op, want 0", c.name, allocs)
		}
	}
}
