package flash

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"blockhead/internal/sim"
)

func smallGeom() Geometry {
	return Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 4, PagesPerBlock: 8, PageSize: 4096}
}

func TestGeometryDerived(t *testing.T) {
	g := smallGeom()
	if g.LUNs() != 4 {
		t.Errorf("LUNs = %d, want 4", g.LUNs())
	}
	if g.TotalBlocks() != 16 {
		t.Errorf("TotalBlocks = %d, want 16", g.TotalBlocks())
	}
	if g.TotalPages() != 128 {
		t.Errorf("TotalPages = %d, want 128", g.TotalPages())
	}
	if g.BlockBytes() != 8*4096 {
		t.Errorf("BlockBytes = %d", g.BlockBytes())
	}
	if g.CapacityBytes() != 16*8*4096 {
		t.Errorf("CapacityBytes = %d", g.CapacityBytes())
	}
}

func TestGeometryBlockInterleave(t *testing.T) {
	g := smallGeom()
	// Consecutive blocks must land on consecutive LUNs (die parallelism).
	for b := 0; b < g.LUNs(); b++ {
		if g.LUNOfBlock(b) != b {
			t.Errorf("LUNOfBlock(%d) = %d, want %d", b, g.LUNOfBlock(b), b)
		}
	}
	if g.LUNOfBlock(g.LUNs()) != 0 {
		t.Error("block numbering must wrap around LUNs")
	}
	// Channel mapping: LUNs 0,1 -> channel 0; LUNs 2,3 -> channel 1.
	if g.ChannelOfLUN(0) != 0 || g.ChannelOfLUN(1) != 0 || g.ChannelOfLUN(2) != 1 {
		t.Error("ChannelOfLUN mapping wrong")
	}
	if g.ChannelOfBlock(2) != 1 {
		t.Errorf("ChannelOfBlock(2) = %d, want 1", g.ChannelOfBlock(2))
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := smallGeom().Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	bad := smallGeom()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid geometry accepted")
	}
	// The size ceiling: 2^31-1 pages is the largest device, and a product
	// that overflows int is an error like any other, not a wrapped-around size.
	for _, tc := range []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"2^31-1 pages in one block", Geometry{1, 1, 1, 1, math.MaxInt32, 4096}, true},
		{"2^31-1 one-page blocks", Geometry{1, 1, 1, math.MaxInt32, 1, 4096}, true},
		{"2^31 pages", Geometry{8, 8, 1, 64, 1 << 19, 4096}, false},
		{"2^31 one-page blocks", Geometry{2, 1, 1, 1 << 30, 1, 4096}, false},
		{"block count overflows int64", Geometry{math.MaxInt32, math.MaxInt32, math.MaxInt32, 2, 1, 4096}, false},
		{"page count wraps to a small positive int64", Geometry{1 << 16, 1 << 16, 1 << 16, 1 << 16, 3, 4096}, false},
	} {
		err := tc.g.Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "valid: 1 to 2147483647 pages")):
			t.Errorf("%s: Validate() = %v, want an error naming the valid range", tc.name, err)
		}
	}
}

// TestBlockLUNAndChannelCached: the LUN and channel New stores with each
// block are the ones the Geometry methods compute, at the benchmark's
// geometry, the exact FEMU point, and one where nothing is a power of two.
func TestBlockLUNAndChannelCached(t *testing.T) {
	for _, g := range []Geometry{
		{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1, BlocksPerLUN: 64, PagesPerBlock: 256, PageSize: 4096},
		{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1, BlocksPerLUN: 64, PagesPerBlock: 2048, PageSize: 4096},
		{Channels: 3, DiesPerChan: 5, PlanesPerDie: 1, BlocksPerLUN: 7, PagesPerBlock: 4, PageSize: 4096},
	} {
		d := New(g, LatenciesFor(TLC))
		for b := range d.blocks {
			if lun, ch := int(d.blocks[b].lun), int(d.blocks[b].ch); lun != g.LUNOfBlock(b) || ch != g.ChannelOfBlock(b) {
				t.Fatalf("%+v: block %d cached (LUN %d, channel %d), geometry says (%d, %d)",
					g, b, lun, ch, g.LUNOfBlock(b), g.ChannelOfBlock(b))
			}
		}
	}
}

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry(8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.BlockBytes() != 16<<20 {
		t.Errorf("default erasure block = %d bytes, want 16 MiB (paper's DRAM estimate)", g.BlockBytes())
	}
}

func TestCellTypeString(t *testing.T) {
	for c, want := range map[CellType]string{SLC: "SLC", MLC: "MLC", TLC: "TLC", QLC: "QLC", PLC: "PLC"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if CellType(9).String() != "CellType(9)" {
		t.Error("unknown cell type String wrong")
	}
}

// The paper (§2.1): "Erasing takes several times longer than programming
// (~6x for TLC)". This is experiment E12's core calibration check.
func TestTLCEraseSixTimesProgram(t *testing.T) {
	lat := LatenciesFor(TLC)
	ratio := float64(lat.EraseBlock) / float64(lat.ProgramPage)
	if ratio < 5.5 || ratio > 6.5 {
		t.Errorf("TLC erase/program ratio = %.2f, want ~6 (paper §2.1)", ratio)
	}
}

func TestLatenciesOrdering(t *testing.T) {
	// Denser cells are slower in every dimension.
	prev := LatenciesFor(SLC)
	for _, c := range []CellType{MLC, TLC, QLC, PLC} {
		cur := LatenciesFor(c)
		if cur.ReadPage < prev.ReadPage || cur.ProgramPage < prev.ProgramPage || cur.EraseBlock < prev.EraseBlock {
			t.Errorf("%v latencies not monotonically slower than previous", c)
		}
		prev = cur
	}
}

func newDev() *Device { return New(smallGeom(), LatenciesFor(TLC)) }

func TestProgramReadRoundTrip(t *testing.T) {
	d := newDev()
	done, err := d.ProgramPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Lat.XferPage + d.Lat.ProgramPage
	if done != want {
		t.Errorf("program completion = %d, want %d", done, want)
	}
	rdone, err := d.ReadPage(done, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rdone != done+d.Lat.ReadPage+d.Lat.XferPage {
		t.Errorf("read completion = %d", rdone)
	}
	c := d.Counts()
	if c.Programs != 1 || c.Reads != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestSequentialProgramEnforced(t *testing.T) {
	d := newDev()
	if _, err := d.ProgramPage(0, 0, 1); !errors.Is(err, ErrNotSequential) {
		t.Errorf("out-of-order program: err = %v, want ErrNotSequential", err)
	}
	if _, err := d.ProgramPage(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramPage(0, 0, 0); !errors.Is(err, ErrNotSequential) {
		t.Errorf("re-program of page 0: err = %v, want ErrNotSequential", err)
	}
}

func TestFullBlockNeedsErase(t *testing.T) {
	d := newDev()
	var at sim.Time
	for p := 0; p < d.Geom.PagesPerBlock; p++ {
		var err error
		at, err = d.ProgramPage(at, 0, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ProgramPage(at, 0, 0); !errors.Is(err, ErrNotErased) {
		t.Errorf("program of full block: err = %v, want ErrNotErased", err)
	}
	at, err := d.EraseBlock(at, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.WrittenPages(0) != 0 {
		t.Error("erase must reset the write point")
	}
	if _, err := d.ProgramPage(at, 0, 0); err != nil {
		t.Errorf("program after erase failed: %v", err)
	}
	if d.EraseCount(0) != 1 {
		t.Errorf("EraseCount = %d, want 1", d.EraseCount(0))
	}
}

func TestReadUnwritten(t *testing.T) {
	d := newDev()
	if _, err := d.ReadPage(0, 0, 0); !errors.Is(err, ErrUnwritten) {
		t.Errorf("err = %v, want ErrUnwritten", err)
	}
	d.ProgramPage(0, 0, 0)
	if _, err := d.ReadPage(0, 0, 1); !errors.Is(err, ErrUnwritten) {
		t.Errorf("read past write point: err = %v, want ErrUnwritten", err)
	}
}

func TestOutOfRange(t *testing.T) {
	d := newDev()
	cases := []struct{ block, page int }{
		{-1, 0}, {d.Geom.TotalBlocks(), 0}, {0, -1}, {0, d.Geom.PagesPerBlock},
	}
	for _, c := range cases {
		if _, err := d.ProgramPage(0, c.block, c.page); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ProgramPage(%d,%d): err = %v, want ErrOutOfRange", c.block, c.page, err)
		}
		if _, err := d.ReadPage(0, c.block, c.page); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadPage(%d,%d): err = %v, want ErrOutOfRange", c.block, c.page, err)
		}
	}
	if _, err := d.EraseBlock(0, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("EraseBlock(-1): err = %v", err)
	}
}

func TestEnduranceWearOut(t *testing.T) {
	d := newDev()
	d.Endurance = 3
	var at sim.Time
	for i := 0; i < 3; i++ {
		var err error
		at, err = d.EraseBlock(at, 5)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.EraseBlock(at, 5); !errors.Is(err, ErrWornOut) {
		t.Errorf("4th erase: err = %v, want ErrWornOut", err)
	}
	if !d.IsBad(5) {
		t.Error("worn-out block must be retired")
	}
	if _, err := d.ProgramPage(at, 5, 0); !errors.Is(err, ErrBadBlock) {
		t.Errorf("program of bad block: err = %v, want ErrBadBlock", err)
	}
	if _, err := d.EraseBlock(at, 5); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase of bad block: err = %v, want ErrBadBlock", err)
	}
}

// Two programs to blocks on different LUNs overlap in time; two programs to
// the same LUN serialize. This is the parallelism that both device models
// inherit.
func TestLUNParallelism(t *testing.T) {
	d := newDev()
	// Blocks 0 and 1 are on different LUNs and different channels? Block 0 ->
	// LUN 0 (chan 0); block 2 -> LUN 2 (chan 1). Use 0 and 2 for full overlap.
	done0, _ := d.ProgramPage(0, 0, 0)
	done2, _ := d.ProgramPage(0, 2, 0)
	if done2 != done0 {
		t.Errorf("parallel programs on separate channels: %d vs %d, want equal", done0, done2)
	}
	// Same LUN: block 4 is LUN 0 again -> must serialize behind block 0.
	done4, _ := d.ProgramPage(0, 4, 0)
	if done4 <= done0 {
		t.Errorf("same-LUN programs must serialize: got %d <= %d", done4, done0)
	}
}

// Programs to two LUNs on the same channel share the bus: the second
// transfer waits for the first, but cell programming overlaps.
func TestChannelContention(t *testing.T) {
	d := newDev()
	done0, _ := d.ProgramPage(0, 0, 0) // LUN 0, chan 0
	done1, _ := d.ProgramPage(0, 1, 0) // LUN 1, chan 0
	if done1 != done0+d.Lat.XferPage {
		t.Errorf("channel-sharing program: done1 = %d, want %d", done1, done0+d.Lat.XferPage)
	}
}

func TestCopyPage(t *testing.T) {
	d := newDev()
	at, err := d.ProgramPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done, err := d.CopyPage(at, 0, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= at {
		t.Error("copy must take time")
	}
	if d.WrittenPages(2) != 1 {
		t.Error("copy must program the destination")
	}
	// Copy of an unwritten source fails.
	if _, err := d.CopyPage(done, 3, 0, 2, 1); !errors.Is(err, ErrUnwritten) {
		t.Errorf("copy of unwritten page: err = %v", err)
	}
}

func TestEraseParallelAcrossLUNs(t *testing.T) {
	d := newDev()
	done0, _ := d.EraseBlock(0, 0)
	done1, _ := d.EraseBlock(0, 1)
	if done0 != done1 {
		t.Errorf("erases on different LUNs must run in parallel: %d vs %d", done0, done1)
	}
}

func TestWearAccounting(t *testing.T) {
	d := newDev()
	d.EraseBlock(0, 0)
	d.EraseBlock(0, 0)
	d.EraseBlock(0, 1)
	if d.Wear().MaxErase != 2 {
		t.Errorf("Wear().MaxErase = %d, want 2", d.Wear().MaxErase)
	}
	if d.Wear().Spread != 2 {
		t.Errorf("Wear().Spread = %d, want 2 (max 2, min 0)", d.Wear().Spread)
	}
}

func TestLUNFreeAt(t *testing.T) {
	d := newDev()
	done, _ := d.EraseBlock(0, 0)
	if d.LUNFreeAt(0) != done {
		t.Errorf("LUNFreeAt = %d, want %d", d.LUNFreeAt(0), done)
	}
	// Block 4 shares LUN 0.
	if d.LUNFreeAt(4) != done {
		t.Error("blocks on the same LUN share the busy state")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid geometry must panic")
		}
	}()
	New(Geometry{}, LatenciesFor(TLC))
}

// Property: any interleaving of valid sequential programs and erases keeps
// per-block write points within bounds and never lets counters go backward.
func TestDeviceInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		d := newDev()
		var at sim.Time
		for _, op := range ops {
			block := int(op) % d.Geom.TotalBlocks()
			if op%3 == 0 {
				done, err := d.EraseBlock(at, block)
				if err != nil {
					return false
				}
				at = done
			} else {
				next := d.WrittenPages(block)
				if next < d.Geom.PagesPerBlock {
					done, err := d.ProgramPage(at, block, next)
					if err != nil {
						return false
					}
					at = done
				}
			}
			if d.WrittenPages(block) < 0 || d.WrittenPages(block) > d.Geom.PagesPerBlock {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
