package ftl

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
)

func testGeom() flash.Geometry {
	return flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 32, PageSize: 4096}
}

func mustNew(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defaultCfg() Config {
	return Config{Geom: testGeom(), Lat: flash.LatenciesFor(flash.TLC),
		OPFraction: 0.1, HotColdSeparation: true, TrimSupported: true}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := defaultCfg()
	cfg.OPFraction = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("OPFraction 1.5 accepted")
	}
	cfg = defaultCfg()
	cfg.OPFraction = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative OPFraction accepted")
	}
	// 2^31 pages: one more than the 4-byte mapping tables can name. An error
	// before anything is allocated, never a truncated table.
	cfg = defaultCfg()
	cfg.Geom = flash.Geometry{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 1 << 19, PageSize: 4096}
	if _, err := New(cfg); err == nil {
		t.Error("a 2^31-page device accepted")
	}
}

func TestCapacityAccounting(t *testing.T) {
	d := mustNew(t, defaultCfg())
	raw := testGeom().TotalPages()
	if d.CapacityPages() >= raw {
		t.Errorf("logical capacity %d must be below raw %d", d.CapacityPages(), raw)
	}
	// OP + reserve: logical = raw/(1.1) - reserve, where the reserve floor
	// (2*LUNs + lowWater + 4 = 16 blocks here) dominates 3.5% of 64 blocks.
	reserve := int64(16 * testGeom().PagesPerBlock)
	want := int64(float64(raw)/1.1) - reserve
	if d.CapacityPages() != want {
		t.Errorf("CapacityPages = %d, want %d", d.CapacityPages(), want)
	}
	if d.PageSize() != 4096 {
		t.Errorf("PageSize = %d", d.PageSize())
	}
}

func TestWriteReadRange(t *testing.T) {
	d := mustNew(t, defaultCfg())
	if _, err := d.WritePage(0, -1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Error("negative lpn accepted")
	}
	if _, err := d.WritePage(0, d.CapacityPages(), nil); !errors.Is(err, ErrOutOfRange) {
		t.Error("lpn == capacity accepted")
	}
	if _, _, err := d.ReadPage(0, 0); !errors.Is(err, ErrUnmapped) {
		t.Error("read of unmapped page must fail")
	}
	done, err := d.WritePage(0, 7, nil)
	if err != nil || done <= 0 {
		t.Fatalf("write: done=%d err=%v", done, err)
	}
	rdone, _, err := d.ReadPage(done, 7)
	if err != nil || rdone <= done {
		t.Fatalf("read: done=%d err=%v", rdone, err)
	}
}

func TestDataPlane(t *testing.T) {
	cfg := defaultCfg()
	cfg.StoreData = true
	d := mustNew(t, cfg)
	payload := []byte("hello flash")
	at, _ := d.WritePage(0, 3, payload)
	_, got, err := d.ReadPage(at, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello flash" {
		t.Errorf("payload round trip: %q", got)
	}
	// Overwrite replaces the payload.
	at, _ = d.WritePage(at, 3, []byte("v2"))
	_, got, _ = d.ReadPage(at, 3)
	if string(got) != "v2" {
		t.Errorf("overwrite payload: %q", got)
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	d := mustNew(t, defaultCfg())
	var at sim.Time
	for i := 0; i < 10; i++ {
		at, _ = d.WritePage(at, 0, nil)
	}
	c := d.Counters()
	if c.HostWritePages != 10 {
		t.Errorf("HostWritePages = %d", c.HostWritePages)
	}
	// All 10 programs happened, but only 1 logical page is live.
	if c.FlashProgramPages != 10 {
		t.Errorf("FlashProgramPages = %d", c.FlashProgramPages)
	}
	var live int64
	for _, v := range d.gc.Valid {
		live += v
	}
	if live != 1 {
		t.Errorf("live pages = %d, want 1", live)
	}
}

// fillSequential maps every logical page once.
func fillSequential(t testing.TB, d *Device, at sim.Time) sim.Time {
	for lpn := int64(0); lpn < d.CapacityPages(); lpn++ {
		var err error
		at, err = d.WritePage(at, lpn, nil)
		if err != nil {
			t.Fatalf("fill write lpn %d: %v", lpn, err)
		}
	}
	return at
}

func TestGCReclaimsSpace(t *testing.T) {
	d := mustNew(t, defaultCfg())
	at := fillSequential(t, d, 0)
	// Overwrite everything twice more: forces sustained GC.
	rng := rand.New(rand.NewSource(1))
	n := d.CapacityPages() * 2
	for i := int64(0); i < n; i++ {
		var err error
		at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
		if err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	if d.GCRuns() == 0 {
		t.Error("GC never ran despite 3x capacity written")
	}
	wa := d.Counters().WriteAmp()
	if wa <= 1.0 {
		t.Errorf("WriteAmp = %v, want > 1 under random overwrite", wa)
	}
	if d.Counters().GCCopyPages == 0 {
		t.Error("GC copied nothing")
	}
}

// The paper's §2.2 experiment: WA falls steeply as OP grows. We verify the
// monotone trend here; the full sweep with calibrated magnitudes is E2.
func TestWriteAmpDecreasesWithOP(t *testing.T) {
	was := make([]float64, 0, 2)
	for _, op := range []float64{0.0, 0.25} {
		cfg := defaultCfg()
		// A geometry with enough blocks that the fractional reserve (3.5%),
		// not the fixed floor, determines the spare at OP = 0.
		cfg.Geom = flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerLUN: 128, PagesPerBlock: 32, PageSize: 4096}
		cfg.OPFraction = op
		d := mustNew(t, cfg)
		at := fillSequential(t, d, 0)
		rng := rand.New(rand.NewSource(42))
		for i := int64(0); i < 2*d.CapacityPages(); i++ {
			var err error
			at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		was = append(was, d.Counters().WriteAmp())
	}
	if was[1] >= was[0] {
		t.Errorf("WA at 25%% OP (%v) must be below WA at 0%% OP (%v)", was[1], was[0])
	}
	if was[0] < 3 {
		t.Errorf("WA at 0%% OP = %v, expected severe amplification", was[0])
	}
}

func TestTrim(t *testing.T) {
	d := mustNew(t, defaultCfg())
	at, _ := d.WritePage(0, 5, nil)
	if err := d.Trim(at, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadPage(at, 5); !errors.Is(err, ErrUnmapped) {
		t.Error("trimmed page still mapped")
	}
	if err := d.Trim(at, d.CapacityPages()-1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Error("out-of-range trim accepted")
	}
	// Trim without support is a no-op.
	cfg := defaultCfg()
	cfg.TrimSupported = false
	d2 := mustNew(t, cfg)
	at, _ = d2.WritePage(0, 5, nil)
	d2.Trim(at, 5, 1)
	if _, _, err := d2.ReadPage(at, 5); err != nil {
		t.Error("trim without support must not unmap")
	}
}

func TestTrimReducesGCWork(t *testing.T) {
	run := func(trim bool) float64 {
		cfg := defaultCfg()
		cfg.TrimSupported = trim
		d, _ := New(cfg)
		var at sim.Time
		at = fillSequential(t, d, at)
		// Delete half the pages, then overwrite the other half repeatedly.
		if trim {
			d.Trim(at, 0, d.CapacityPages()/2)
		}
		rng := rand.New(rand.NewSource(7))
		half := d.CapacityPages() / 2
		for i := int64(0); i < 3*half; i++ {
			var err error
			at, err = d.WritePage(at, half+rng.Int63n(half), nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		return d.Counters().WriteAmp()
	}
	withTrim, withoutTrim := run(true), run(false)
	if withTrim >= withoutTrim {
		t.Errorf("trim must reduce WA: with=%v without=%v", withTrim, withoutTrim)
	}
}

func TestGCStallVisible(t *testing.T) {
	d := mustNew(t, defaultCfg())
	at := fillSequential(t, d, 0)
	rng := rand.New(rand.NewSource(3))
	sawStall := false
	for i := int64(0); i < 2*d.CapacityPages(); i++ {
		var err error
		at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.LastGCStall() > 0 {
			sawStall = true
			if d.LastGCStall() < d.Flash().Lat.EraseBlock {
				t.Errorf("GC stall %v shorter than one erase", d.LastGCStall())
			}
		}
	}
	if !sawStall {
		t.Error("no foreground GC stall observed")
	}
}

func TestWearLeveling(t *testing.T) {
	d := mustNew(t, defaultCfg())
	at := fillSequential(t, d, 0)
	rng := rand.New(rand.NewSource(9))
	for i := int64(0); i < 6*d.CapacityPages(); i++ {
		var err error
		at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	spread := d.Flash().Wear().Spread
	max := d.Flash().Wear().MaxErase
	if max == 0 {
		t.Fatal("no erases happened")
	}
	if float64(spread) > 0.8*float64(max)+4 {
		t.Errorf("wear spread %d too large vs max %d", spread, max)
	}
}

func TestDRAMFootprint(t *testing.T) {
	d := mustNew(t, defaultCfg())
	want := 4*d.CapacityPages() + 4*int64(testGeom().TotalBlocks())
	if d.DRAMFootprintBytes() != want {
		t.Errorf("DRAMFootprintBytes = %d, want %d", d.DRAMFootprintBytes(), want)
	}
}

func TestGCPolicyString(t *testing.T) {
	if Greedy.String() != "greedy" || CostBenefit.String() != "cost-benefit" {
		t.Error("GCPolicy.String wrong")
	}
}

func TestCostBenefitPolicyWorks(t *testing.T) {
	cfg := defaultCfg()
	cfg.GCPolicy = CostBenefit
	d := mustNew(t, cfg)
	at := fillSequential(t, d, 0)
	rng := rand.New(rand.NewSource(11))
	for i := int64(0); i < 2*d.CapacityPages(); i++ {
		var err error
		at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.GCRuns() == 0 {
		t.Error("cost-benefit GC never ran")
	}
}

// Model check: the FTL must behave like a flat page store. We mirror every
// write into a map and verify all mappings survive heavy GC churn.
func TestReadAfterWriteUnderGC(t *testing.T) {
	cfg := defaultCfg()
	cfg.StoreData = true
	d := mustNew(t, cfg)
	model := make(map[int64]uint64)
	rng := rand.New(rand.NewSource(5))
	var at sim.Time
	buf := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	for i := 0; i < 4000; i++ {
		lpn := rng.Int63n(d.CapacityPages())
		v := rng.Uint64()
		var err error
		at, err = d.WritePage(at, lpn, buf(v))
		if err != nil {
			t.Fatal(err)
		}
		model[lpn] = v
	}
	for lpn, v := range model {
		_, got, err := d.ReadPage(at, lpn)
		if err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		if binary.LittleEndian.Uint64(got) != v {
			t.Fatalf("lpn %d: got %d, want %d", lpn, binary.LittleEndian.Uint64(got), v)
		}
	}
}

// Invariant check after churn: L2P and P2L are mutually consistent and
// valid-counts match the reverse map.
func TestMappingInvariants(t *testing.T) {
	d := mustNew(t, defaultCfg())
	rng := rand.New(rand.NewSource(13))
	var at sim.Time
	for i := 0; i < 5000; i++ {
		var err error
		at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			d.Trim(at, rng.Int63n(d.CapacityPages()), 1)
		}
	}
	// L2P -> P2L consistency.
	for lpn, ppn := range d.gc.L2P {
		if ppn == unmapped {
			continue
		}
		if d.gc.P2L[ppn] != int32(lpn) {
			t.Fatalf("l2p[%d]=%d but p2l[%d]=%d", lpn, ppn, ppn, d.gc.P2L[ppn])
		}
	}
	// Valid counts match P2L.
	perBlock := make([]int64, testGeom().TotalBlocks())
	for ppn, lpn := range d.gc.P2L {
		if lpn != unmapped {
			perBlock[ppn/testGeom().PagesPerBlock]++
		}
	}
	for b, v := range perBlock {
		if d.gc.Valid[b] != v {
			t.Fatalf("valid[%d]=%d but p2l says %d", b, d.gc.Valid[b], v)
		}
	}
}

func TestOutOfSpaceWhenOverfull(t *testing.T) {
	// Tiny device with no trim: writing unique pages beyond capacity is
	// impossible, but overwrites must always succeed.
	cfg := defaultCfg()
	d := mustNew(t, cfg)
	at := fillSequential(t, d, 0)
	// Device is 100% utilized. Overwrites still work (GC reclaims stale).
	for i := int64(0); i < d.CapacityPages(); i++ {
		var err error
		at, err = d.WritePage(at, i, nil)
		if err != nil {
			t.Fatalf("overwrite at full utilization failed: %v", err)
		}
	}
}

func TestMultiStreamSeparation(t *testing.T) {
	cfg := defaultCfg()
	cfg.Streams = 2
	d := mustNew(t, cfg)
	if _, err := d.WritePageStream(0, 0, 2, nil); !errors.Is(err, ErrBadStream) {
		t.Errorf("out-of-range stream: %v", err)
	}
	if _, err := d.WritePageStream(0, 0, -1, nil); !errors.Is(err, ErrBadStream) {
		t.Errorf("negative stream: %v", err)
	}
	at, err := d.WritePageStream(0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = d.WritePageStream(at, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	// The two streams' pages must land in different erasure blocks.
	b0 := d.blockOf(d.gc.L2P[0])
	b1 := d.blockOf(d.gc.L2P[1])
	if b0 == b1 {
		t.Errorf("streams shared block %d", b0)
	}
}

// Multi-stream separation must reduce WA on a mixed-lifetime workload (the
// §2.3 claim, tested at unit scale).
func TestMultiStreamReducesWA(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 96, PagesPerBlock: 32, PageSize: 4096}
	run := func(streams int) float64 {
		d, err := New(Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC),
			OPFraction: 0.07, Streams: streams,
			HotColdSeparation: true, TrimSupported: true})
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		for lpn := int64(0); lpn < d.CapacityPages(); lpn++ {
			if at, err = d.WritePage(at, lpn, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Two lifetime groups: the first half of the LBA space takes 95% of
		// the overwrites.
		rng := rand.New(rand.NewSource(3))
		half := d.CapacityPages() / 2
		base := *d.Counters()
		for i := int64(0); i < 2*d.CapacityPages(); i++ {
			lpn := half + rng.Int63n(half)
			stream := 1 % streams
			if rng.Float64() < 0.95 {
				lpn = rng.Int63n(half)
				stream = 0
			}
			if at, err = d.WritePageStream(at, lpn, stream, nil); err != nil {
				t.Fatal(err)
			}
		}
		c := *d.Counters()
		return float64(c.FlashProgramPages-base.FlashProgramPages) /
			float64(c.HostWritePages-base.HostWritePages)
	}
	one := run(1)
	two := run(2)
	if two >= one {
		t.Errorf("2-stream WA (%.2f) must beat 1-stream (%.2f)", two, one)
	}
}

func TestDeviceIncrementalGC(t *testing.T) {
	run := func(mode GCMode) (maxStall sim.Time, wa float64) {
		cfg := defaultCfg()
		cfg.GCMode = mode
		d := mustNew(t, cfg)
		at := fillSequential(t, d, 0)
		rng := rand.New(rand.NewSource(21))
		for i := int64(0); i < 3*d.CapacityPages(); i++ {
			var err error
			at, err = d.WritePage(at, rng.Int63n(d.CapacityPages()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.LastGCStall() > maxStall {
				maxStall = d.LastGCStall()
			}
		}
		return maxStall, d.Counters().WriteAmp()
	}
	fgStall, fgWA := run(GCForeground)
	incStall, incWA := run(GCDeviceIncremental)
	if incStall >= fgStall {
		t.Errorf("incremental max stall %v must be below foreground %v", incStall, fgStall)
	}
	if fgWA <= 1 || incWA <= 1 {
		t.Errorf("both modes must amplify under churn: fg=%v inc=%v", fgWA, incWA)
	}
}

func TestDeviceIncrementalGCCorrectness(t *testing.T) {
	cfg := defaultCfg()
	cfg.GCMode = GCDeviceIncremental
	cfg.StoreData = true
	d := mustNew(t, cfg)
	model := map[int64]uint64{}
	rng := rand.New(rand.NewSource(22))
	var at sim.Time
	buf := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	for i := 0; i < 6000; i++ {
		lpn := rng.Int63n(d.CapacityPages())
		v := rng.Uint64()
		var err error
		at, err = d.WritePage(at, lpn, buf(v))
		if err != nil {
			t.Fatal(err)
		}
		model[lpn] = v
	}
	for lpn, v := range model {
		_, got, err := d.ReadPage(at, lpn)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if binary.LittleEndian.Uint64(got) != v {
			t.Fatalf("lpn %d corrupted under incremental GC", lpn)
		}
	}
	if d.GCRuns() == 0 {
		t.Error("incremental GC never completed a victim")
	}
}

func TestGCModeString(t *testing.T) {
	if GCForeground.String() != "foreground" || GCDeviceIncremental.String() != "device-incremental" {
		t.Error("GCMode.String wrong")
	}
}
