package hostftl

import (
	"math/rand"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

func testDevGeom(t *testing.T, geom flash.Geometry, zoneBlocks int, endurance uint32) *zns.Device {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geom: geom, Lat: flash.LatenciesFor(flash.TLC),
		ZoneBlocks: zoneBlocks, Endurance: endurance,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestZonesPerStreamParallelism(t *testing.T) {
	geom := flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 32, PageSize: 4096}
	run := func(zps int) sim.Time {
		f, err := New(testDevGeom(t, geom, 1, 0), Config{ZonesPerStream: zps})
		if err != nil {
			t.Fatal(err)
		}
		// Issue 32 writes (one zone's worth) all at t=0 and report when the
		// last completes: striping across more open zones means more LUNs
		// work in parallel.
		var last sim.Time
		for i := int64(0); i < 32; i++ {
			done, err := f.Write(0, i, nil)
			if err != nil {
				t.Fatal(err)
			}
			last = sim.Max(last, done)
		}
		return last
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Errorf("4 zones/stream (%v) must finish faster than 1 (%v)", four, one)
	}
	if one < 3*four {
		t.Errorf("expected ~4x overlap: 1-zone %v vs 4-zone %v", one, four)
	}
}

func TestMaintenanceStepPacing(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096}
	f, err := New(testDevGeom(t, geom, 1, 0), Config{GCMode: GCIncremental, OPFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Above target: a step must be a no-op.
	if f.MaintenanceStep(0, 8, 2) {
		t.Error("maintenance ran with a full pool")
	}
	// Create pressure: fill the logical space, then churn.
	rng := rand.New(rand.NewSource(1))
	var at sim.Time
	for lpn := int64(0); lpn < f.CapacityPages(); lpn++ {
		if at, err = f.Write(at, lpn, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < f.CapacityPages(); i++ {
		if at, err = f.Write(at, rng.Int63n(f.CapacityPages()), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Now drive maintenance with a generous target: it must reclaim, one
	// bounded nibble per call, and eventually raise the pool.
	before := f.freeZones.Len()
	resetsBefore := f.GCResets()
	for i := 0; i < 500 && f.freeZones.Len() <= before+3; i++ {
		f.MaintenanceStep(at, 4, before+4)
	}
	if f.GCResets() == resetsBefore {
		t.Error("maintenance never reclaimed a zone")
	}
	if f.freeZones.Len() <= before {
		t.Errorf("pool did not grow: %d -> %d", before, f.freeZones.Len())
	}
}

func TestMaintenanceSingleResetPerStep(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096}
	f, err := New(testDevGeom(t, geom, 1, 0), Config{GCMode: GCIncremental})
	if err != nil {
		t.Fatal(err)
	}
	// Build several fully-dead sealed zones: write, then trim everything.
	var at sim.Time
	for lpn := int64(0); lpn < f.CapacityPages(); lpn++ {
		if at, err = f.Write(at, lpn, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Trim(0, f.CapacityPages()); err != nil {
		t.Fatal(err)
	}
	// Each step may reset at most one zone, no matter how many are dead.
	for i := 0; i < 3; i++ {
		before := f.GCResets()
		f.MaintenanceStep(at, 4, f.dev.NumZones())
		if got := f.GCResets() - before; got > 1 {
			t.Fatalf("step %d reset %d zones; the cap is 1", i, got)
		}
	}
}

func TestEmergencyCounterAndRecovery(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096}
	f, err := New(testDevGeom(t, geom, 1, 0), Config{GCMode: GCIncremental, GCChunkPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny chunk budget with heavy churn eventually drains the pool and
	// forces the emergency path; correctness must survive it.
	rng := rand.New(rand.NewSource(2))
	var at sim.Time
	for i := int64(0); i < 6*f.CapacityPages(); i++ {
		if at, err = f.Write(at, rng.Int63n(f.CapacityPages()), nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.Emergencies() == 0 {
		t.Skip("churn never hit the emergency path on this configuration")
	}
	// Mappings still consistent after emergencies.
	for lpn, lba := range f.gc.L2P {
		if lba != unmapped && f.gc.P2L[lba] != int32(lpn) {
			t.Fatalf("mapping broken after emergency: l2p[%d]=%d", lpn, lba)
		}
	}
}

// Wear: zones shrink and go offline; the translation layer must keep
// serving writes by skipping dead zones.
func TestWearShrinksPoolGracefully(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096}
	f, err := New(testDevGeom(t, geom, 1, 200), Config{OPFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var at sim.Time
	wrote := int64(0)
	for i := int64(0); i < 60*f.CapacityPages(); i++ {
		var werr error
		at, werr = f.Write(at, rng.Int63n(f.CapacityPages()), nil)
		if werr != nil {
			break // wear-out is legitimate; what matters is graceful decline
		}
		wrote++
	}
	if wrote < 10*f.CapacityPages() {
		t.Errorf("device died after only %d writes (capacity %d)", wrote, f.CapacityPages())
	}
}
