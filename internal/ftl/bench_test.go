package ftl

import (
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
)

var benchGeom = flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
	BlocksPerLUN: 128, PagesPerBlock: 64, PageSize: 4096}

func benchDev(tb testing.TB, geom flash.Geometry) *Device {
	tb.Helper()
	d, err := NewDefault(geom, flash.LatenciesFor(flash.TLC), 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkWritePageSequential measures the sequential write path with no
// GC pressure.
func BenchmarkWritePageSequential(b *testing.B) {
	d := benchDev(b, benchGeom)
	var at sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = d.WritePage(at, int64(i)%d.CapacityPages(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// steadyStateGC fills a default device on geom, GC scheduled per mode, and
// ages it with one capacity of uniform random overwrites, returning it with
// the key stream and clock to carry on from: every further write pays its
// amortized share of GC.
func steadyStateGC(tb testing.TB, geom flash.Geometry, mode GCMode) (*Device, *workload.Uniform, sim.Time) {
	tb.Helper()
	d, err := New(Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC), OPFraction: 0.1,
		GCMode: mode, HotColdSeparation: true, TrimSupported: true})
	if err != nil {
		tb.Fatal(err)
	}
	var at sim.Time
	for lpn := int64(0); lpn < d.CapacityPages(); lpn++ {
		at, _ = d.WritePage(at, lpn, nil)
	}
	keys := workload.NewUniform(workload.NewSource(1), d.CapacityPages())
	for i := int64(0); i < d.CapacityPages(); i++ { // age
		at, _ = d.WritePage(at, keys.Next(), nil)
	}
	return d, keys, at
}

var steadyStateGeoms = []struct {
	name string
	geom flash.Geometry
}{
	{"toy", benchGeom},
	{"femu256", oracleFemu256},
}

// BenchmarkFTLGCWrite measures random overwrites at GC steady state — the
// per-op cost including amortized victim selection and relocation (copies/op)
// — on the 512-block device the other rungs use and at the repository
// benchmark's 4 096-block geometry, where the mapping tables outgrow the
// caches and per-block costs show.
func BenchmarkFTLGCWrite(b *testing.B) {
	for _, bc := range steadyStateGeoms {
		b.Run(bc.name, func(b *testing.B) {
			d, keys, at := steadyStateGC(b, bc.geom, GCForeground)
			copies := d.Counters().GCCopyPages
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				at, err = d.WritePage(at, keys.Next(), nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Counters().GCCopyPages-copies)/float64(b.N), "copies/op")
		})
	}
}

var pickSink int

// BenchmarkPickVictim measures one victim selection on a device in GC steady
// state (a pick changes nothing, so every iteration sees the same state).
func BenchmarkPickVictim(b *testing.B) {
	for _, bc := range steadyStateGeoms {
		b.Run(bc.name, func(b *testing.B) {
			d, _, at := steadyStateGC(b, bc.geom, GCForeground)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pickSink = d.gc.Pick(at)
			}
		})
	}
}

// TestSteadyStateGCWritesDoNotAllocate pins the GC path — victim index
// updates, picks, relocation, erase — at zero allocations per host write, in
// both scheduling modes.
func TestSteadyStateGCWritesDoNotAllocate(t *testing.T) {
	for _, mode := range []GCMode{GCForeground, GCDeviceIncremental} {
		d, keys, at := steadyStateGC(t, benchGeom, mode)
		runs := d.GCRuns()
		allocs := testing.AllocsPerRun(20000, func() {
			at, _ = d.WritePage(at, keys.Next(), nil)
		})
		if d.GCRuns() == runs {
			t.Fatalf("%v: no GC ran during the measured writes", mode)
		}
		if allocs != 0 {
			t.Errorf("%v: steady-state GC write allocates %.2f times per op, want 0", mode, allocs)
		}
	}
}

func BenchmarkReadPageMapped(b *testing.B) {
	d := benchDev(b, benchGeom)
	at, _ := d.WritePage(0, 7, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, _, err = d.ReadPage(at, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
}
