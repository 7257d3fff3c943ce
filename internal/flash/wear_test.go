package flash

import (
	"errors"
	"testing"

	"blockhead/internal/sim"
)

func TestWearTracksErases(t *testing.T) {
	d := New(smallGeom(), LatenciesFor(SLC)) // 16 blocks
	w := d.Wear()
	if w.Blocks != 16 || w.TotalErases != 0 || w.MaxErase != 0 || w.Skew != 0 {
		t.Fatalf("fresh device wear = %+v", w)
	}
	var at sim.Time
	erase := func(block, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			var err error
			if at, err = d.EraseBlock(at, block); err != nil {
				t.Fatal(err)
			}
		}
	}
	erase(0, 4)
	erase(1, 1)
	w = d.Wear()
	if w.TotalErases != 5 || w.MaxErase != 4 || w.MinErase != 0 {
		t.Fatalf("wear = %+v", w)
	}
	if w.Spread != 4 {
		t.Errorf("Spread = %d, want 4", w.Spread)
	}
	wantMean := 5.0 / 16.0
	if w.MeanErase != wantMean {
		t.Errorf("MeanErase = %v, want %v", w.MeanErase, wantMean)
	}
	if w.Skew != 4/wantMean {
		t.Errorf("Skew = %v, want %v", w.Skew, 4/wantMean)
	}
}

func TestEraseCounts(t *testing.T) {
	d := New(smallGeom(), LatenciesFor(SLC))
	var at sim.Time
	for i := 0; i < 3; i++ {
		var err error
		if at, err = d.EraseBlock(at, 2); err != nil {
			t.Fatal(err)
		}
	}
	counts := d.EraseCounts(nil)
	if len(counts) != 16 || counts[2] != 3 || counts[0] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	// A caller-provided buffer with capacity is reused, not reallocated.
	buf := make([]uint32, 0, 32)
	counts = d.EraseCounts(buf)
	if &counts[0] != &buf[:1][0] {
		t.Error("EraseCounts did not reuse the provided buffer")
	}
	if counts[2] != 3 {
		t.Errorf("reused buffer counts[2] = %d", counts[2])
	}
}

// Endurance, ErrWornOut, and the wear summary share one per-block counter:
// a block worn to retirement is excluded from Min/Spread but keeps its
// erases in the totals.
func TestWearEnduranceOneSourceOfTruth(t *testing.T) {
	d := New(smallGeom(), LatenciesFor(SLC))
	d.Endurance = 2
	var at sim.Time
	var err error
	for i := 0; i < 2; i++ {
		if at, err = d.EraseBlock(at, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = d.EraseBlock(at, 0); !errors.Is(err, ErrWornOut) {
		t.Fatalf("third erase: %v, want ErrWornOut", err)
	}
	if !d.IsBad(0) {
		t.Fatal("worn block not retired")
	}
	w := d.Wear()
	if w.BadBlocks != 1 || w.TotalErases != 2 || w.MaxErase != 2 {
		t.Fatalf("wear after wear-out = %+v", w)
	}
	// Min/Spread cover only the 15 surviving blocks (all at 0).
	if w.MinErase != 0 || w.Spread != 0 {
		t.Errorf("MinErase=%d Spread=%d, want 0/0 over good blocks", w.MinErase, w.Spread)
	}
}

func TestWearHist(t *testing.T) {
	counts := []uint32{0, 0, 1, 15, 31}
	hist := wearHist(counts, 31)
	// width = 31/16+1 = 2: buckets [0,1]=3, [14,15]=1, [30,31]=1.
	if len(hist) != 3 {
		t.Fatalf("hist = %+v", hist)
	}
	if hist[0].Lo != 0 || hist[0].Hi != 1 || hist[0].Blocks != 3 {
		t.Errorf("hist[0] = %+v", hist[0])
	}
	if hist[2].Lo != 30 || hist[2].Hi != 31 || hist[2].Blocks != 1 {
		t.Errorf("hist[2] = %+v", hist[2])
	}
	total := 0
	for _, b := range hist {
		total += b.Blocks
	}
	if total != len(counts) {
		t.Errorf("hist covers %d blocks, want %d", total, len(counts))
	}
}

func TestHeatSectionShape(t *testing.T) {
	d := New(smallGeom(), LatenciesFor(SLC))
	var at sim.Time
	at, _ = d.EraseBlock(at, 3)
	h := d.heatSection(at)
	if h.Wear == nil || h.Wear.Blocks != 16 || h.Wear.MaxErase != 1 {
		t.Fatalf("wear section = %+v", h.Wear)
	}
	if len(h.Wear.Cells) != 16 || h.Wear.CellBlocks != 1 || h.Wear.Cells[3] != 1 {
		t.Fatalf("wear cells = %v stride %d", h.Wear.Cells, h.Wear.CellBlocks)
	}
	if len(h.Channels) != 2 || len(h.LUNs) != 4 {
		t.Fatalf("occupancy: %d channels %d luns", len(h.Channels), len(h.LUNs))
	}
	// The erased block's LUN was busy for the whole erase, so its occupancy
	// is positive and no occupancy exceeds 1.
	lun := d.Geom.LUNOfBlock(3)
	if h.LUNs[lun].BusyFrac <= 0 {
		t.Error("erase left no busy time on its LUN")
	}
	for _, u := range append(h.Channels, h.LUNs...) {
		if u.BusyFrac < 0 || u.BusyFrac > 1 {
			t.Errorf("unit %d busy_frac %v out of range", u.ID, u.BusyFrac)
		}
	}
}
