package flash

// WearSummary aggregates per-block erase wear. It is the single source of
// truth for wear statistics: the endurance path (ErrWornOut) and every wear
// report derive from the same per-block erase counts.
type WearSummary struct {
	Blocks      int     // total blocks
	BadBlocks   int     // retired blocks
	TotalErases uint64  // sum of per-block erase counts (incl. bad blocks)
	MaxErase    uint32  // highest per-block erase count
	MinErase    uint32  // lowest erase count across non-bad blocks
	MeanErase   float64 // mean erase count across all blocks
	Spread      uint32  // MaxErase - MinErase across non-bad blocks
	Skew        float64 // MaxErase / MeanErase; 0 before any erase
}

// Wear computes the wear summary from the per-block erase counts.
func (d *Device) Wear() WearSummary {
	w := WearSummary{Blocks: len(d.blocks), MinErase: ^uint32(0)}
	var hiGood uint32
	anyGood := false
	for i := range d.blocks {
		b := &d.blocks[i]
		c := b.eraseCount
		w.TotalErases += uint64(c)
		if c > w.MaxErase {
			w.MaxErase = c
		}
		if b.bad {
			w.BadBlocks++
			continue
		}
		anyGood = true
		if c < w.MinErase {
			w.MinErase = c
		}
		if c > hiGood {
			hiGood = c
		}
	}
	if !anyGood {
		w.MinErase = 0
	} else {
		w.Spread = hiGood - w.MinErase
	}
	if w.Blocks > 0 {
		w.MeanErase = float64(w.TotalErases) / float64(w.Blocks)
	}
	if w.MeanErase > 0 {
		w.Skew = float64(w.MaxErase) / w.MeanErase
	}
	return w
}
