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
