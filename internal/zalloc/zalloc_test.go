package zalloc

import (
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

// churn is a store in steady state over a 16-zone device: 64 extents of 4
// pages stay live (half the device), and each step kills a pseudo-random one
// and writes its replacement, so zones seal half dead and reclamation must
// relocate survivors.
type churn struct {
	a    *Alloc
	dev  *zns.Device
	recs []Extent // every extent the run will write, made up front
	live [64]*Extent
	rng  uint32
	at   sim.Time
}

func newChurn(t testing.TB) *churn {
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 2, // 16 zones of 32 pages
	})
	if err != nil {
		t.Fatal(err)
	}
	return &churn{a: New(dev, 1), dev: dev, recs: make([]Extent, 8000), rng: 1}
}

func (c *churn) step(t testing.TB) {
	c.rng = c.rng*1664525 + 1013904223
	j := (c.rng >> 8) % uint32(len(c.live))
	if x := c.live[j]; x != nil {
		c.a.Kill(x)
	}
	c.at += 100 * sim.Microsecond
	c.a.Reclaim(c.at)
	x := &c.recs[0]
	c.recs = c.recs[1:]
	x.Pages = 4
	z, err := c.a.Room(c.at, 0, x.Pages)
	if err != nil {
		t.Fatal(err)
	}
	off := c.dev.WP(z)
	for p := int64(0); p < x.Pages; p++ {
		if _, _, err := c.dev.Append(c.at, z, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.a.Place(x, z, off)
	c.live[j] = x
}

// TestZoneAllocatorDoesNotAllocate pins the steady state at zero allocations:
// once every zone has cycled, a roll, a reclaim that relocates survivors and
// a reset back into the pool reuse the ring, the extent records, the
// per-zone lists and the copy's source slice.
func TestZoneAllocatorDoesNotAllocate(t *testing.T) {
	c := newChurn(t)
	for i := 0; i < 5000; i++ {
		c.step(t)
	}
	moved, resets := c.a.Moved, c.a.Resets
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			c.step(t)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per 100 steps; want 0", allocs)
	}
	if c.a.Moved == moved || c.a.Resets == resets {
		t.Errorf("measured steps relocated %d pages and reset %d zones; want both > 0",
			c.a.Moved-moved, c.a.Resets-resets)
	}
}
