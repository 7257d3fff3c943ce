// Integration tests driving several subsystems together, end to end.
package blockhead

import (
	"fmt"
	"testing"

	"blockhead/internal/core"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zkv"
	"blockhead/internal/zns"
)

// The LSM store must keep its data intact while the underlying ZNS device
// wears out and shrinks zones underneath it.
func TestIntegrationKVOnWearingDevice(t *testing.T) {
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerLUN: 96, PagesPerBlock: 64, PageSize: 1024},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 2,
		Endurance:  4, // very low: zones start dying mid-run
		StoreData:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := zkv.NewZNSBackend(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	db := zkv.Open(backend, zkv.Options{MemtableBytes: 32 << 10,
		BaseLevelBytes: 128 << 10, TableTargetBytes: 16 << 10, Seed: 1})
	src := workload.NewSource(2)
	keys := workload.NewUniform(src, 1500)
	key := func(i int64) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
	latest := map[int64]int{}
	var at sim.Time
	for i := 0; i < 20000; i++ {
		k := keys.Next()
		var err error
		at, err = db.Put(at, key(k), []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			// Running out of healthy zones is a legitimate end state; the
			// data written so far must still be intact.
			t.Logf("device wore out after %d puts: %v", i, err)
			break
		}
		latest[k] = i
	}
	checked := 0
	for k, v := range latest {
		_, got, found, err := db.Get(at, key(k))
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || string(got) != fmt.Sprintf("v%d", v) {
			t.Fatalf("key %d corrupted on wearing device: %q (want v%d)", k, got, v)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d keys verified; device died too early to test anything", checked)
	}
}

// Experiments are deterministic: identical seeds give identical results,
// and the headline shape holds across seeds.
func TestIntegrationDeterminism(t *testing.T) {
	a, _, err := core.E2Point(0.11, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := core.E2Point(0.11, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different WA: %v vs %v", a, b)
	}
	for _, seed := range []int64{1, 99, 12345} {
		lo, _, err := core.E2Point(0.25, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		hi, _, err := core.E2Point(0, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		if hi <= 3*lo {
			t.Errorf("seed %d: WA(0%%)=%v not well above WA(25%%)=%v", seed, hi, lo)
		}
	}
}
