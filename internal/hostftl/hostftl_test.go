package hostftl

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

func testDev(t *testing.T, storeData bool) *zns.Device {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 4,
		StoreData:  storeData,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func mustNew(t *testing.T, dev *zns.Device, cfg Config) *FTL {
	t.Helper()
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	// Device with too few active zones for the stream count.
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096},
		Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4, MaxActive: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, Config{Streams: 4}); err == nil {
		t.Error("stream count exceeding MaxActive accepted")
	}
	// A device of 2^31 pages, one more than the 4-byte mapping tables can
	// name, cannot be handed to New: the layer below refuses to build it.
	// (New checks the page count itself too, so the tables never rest on
	// another package's ceiling.)
	if _, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1,
			BlocksPerLUN: 64, PagesPerBlock: 1 << 19, PageSize: 4096},
		Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4,
	}); err == nil {
		t.Error("a 2^31-page device accepted")
	}
}

func TestCapacityBelowDevice(t *testing.T) {
	dev := testDev(t, false)
	f := mustNew(t, dev, Config{})
	devPages := int64(dev.NumZones()) * dev.ZonePages()
	if f.CapacityPages() >= devPages {
		t.Errorf("logical capacity %d must be below device %d (reserve)", f.CapacityPages(), devPages)
	}
	if f.PageSize() != 4096 {
		t.Errorf("PageSize = %d", f.PageSize())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dev := testDev(t, true)
	f := mustNew(t, dev, Config{})
	at, err := f.Write(0, 10, []byte("block-on-zns"))
	if err != nil {
		t.Fatal(err)
	}
	done, data, err := f.Read(at, 10)
	if err != nil || done <= at {
		t.Fatalf("read: %v done=%d", err, done)
	}
	if string(data) != "block-on-zns" {
		t.Errorf("data = %q", data)
	}
	if _, _, err := f.Read(at, 11); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped read: %v", err)
	}
	if _, err := f.Write(at, f.CapacityPages(), nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range write: %v", err)
	}
	if _, err := f.WriteStream(at, 0, 5, nil); !errors.Is(err, ErrBadStream) {
		t.Errorf("bad stream: %v", err)
	}
}

// The block interface on ZNS must allow unrestricted random overwrites —
// that is the whole point of the layer (§2.3).
func TestRandomOverwritesSurviveReclaim(t *testing.T) {
	dev := testDev(t, true)
	f := mustNew(t, dev, Config{})
	rng := rand.New(rand.NewSource(1))
	model := map[int64]uint64{}
	var at sim.Time
	buf := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	// Write 4x the logical capacity randomly: forces many zone reclaims.
	n := 4 * f.CapacityPages()
	for i := int64(0); i < n; i++ {
		lpn := rng.Int63n(f.CapacityPages())
		v := rng.Uint64()
		var err error
		at, err = f.Write(at, lpn, buf(v))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		model[lpn] = v
	}
	if f.GCResets() == 0 {
		t.Error("no zones were reclaimed despite 4x capacity written")
	}
	for lpn, v := range model {
		_, data, err := f.Read(at, lpn)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if binary.LittleEndian.Uint64(data) != v {
			t.Fatalf("lpn %d: got %d want %d", lpn, binary.LittleEndian.Uint64(data), v)
		}
	}
}

func TestSimpleCopySavesPCIe(t *testing.T) {
	run := func(simpleCopy bool) (pcie uint64, wa float64) {
		dev := testDev(t, false)
		f := mustNew(t, dev, Config{UseSimpleCopy: simpleCopy})
		rng := rand.New(rand.NewSource(2))
		var at sim.Time
		for i := int64(0); i < 4*f.CapacityPages(); i++ {
			var err error
			at, err = f.Write(at, rng.Int63n(f.CapacityPages()), nil)
			if err != nil {
				panic(err)
			}
		}
		return f.Counters().PCIeBytes, f.WriteAmp()
	}
	pcieWith, waWith := run(true)
	pcieWithout, waWithout := run(false)
	if pcieWith >= pcieWithout {
		t.Errorf("simple copy must cut PCIe traffic: with=%d without=%d", pcieWith, pcieWithout)
	}
	// Both modes do the same logical relocation work.
	if waWith < 1 || waWithout < 1 {
		t.Errorf("WA must be >= 1: with=%v without=%v", waWith, waWithout)
	}
}

func TestTrimFreesLiveData(t *testing.T) {
	dev := testDev(t, false)
	f := mustNew(t, dev, Config{})
	var at sim.Time
	for i := int64(0); i < 20; i++ {
		at, _ = f.Write(at, i, nil)
	}
	if err := f.Trim(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Read(at, 5); !errors.Is(err, ErrUnmapped) {
		t.Error("trimmed page still mapped")
	}
	if err := f.Trim(f.CapacityPages()-1, 5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range trim: %v", err)
	}
}

func TestIncrementalModeBoundsStalls(t *testing.T) {
	run := func(mode GCMode) (maxStall sim.Time) {
		dev := testDev(t, false)
		f := mustNew(t, dev, Config{GCMode: mode, GCChunkPages: 4})
		rng := rand.New(rand.NewSource(3))
		var at sim.Time
		for i := int64(0); i < 4*f.CapacityPages(); i++ {
			var err error
			at, err = f.Write(at, rng.Int63n(f.CapacityPages()), nil)
			if err != nil {
				panic(err)
			}
			if f.LastStall() > maxStall {
				maxStall = f.LastStall()
			}
		}
		return maxStall
	}
	inline := run(GCInline)
	incr := run(GCIncremental)
	if inline == 0 {
		t.Fatal("inline mode never stalled; test not exercising reclaim")
	}
	if incr >= inline {
		t.Errorf("incremental stall %v must be below inline stall %v", incr, inline)
	}
}

func TestStreamsSeparateZones(t *testing.T) {
	dev := testDev(t, false)
	f := mustNew(t, dev, Config{Streams: 2})
	at, err := f.WriteStream(0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = f.WriteStream(at, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	z0, _ := dev.ZoneOf(int64(f.gc.L2P[0]))
	z1, _ := dev.ZoneOf(int64(f.gc.L2P[1]))
	if z0 == z1 {
		t.Error("different streams must write to different zones")
	}
}

func TestWriteAmpAboveOneUnderChurn(t *testing.T) {
	dev := testDev(t, false)
	f := mustNew(t, dev, Config{})
	rng := rand.New(rand.NewSource(4))
	var at sim.Time
	for i := int64(0); i < 5*f.CapacityPages(); i++ {
		var err error
		at, err = f.Write(at, rng.Int63n(f.CapacityPages()), nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	wa := f.WriteAmp()
	if wa <= 1.0 {
		t.Errorf("WA = %v, want > 1 under random churn", wa)
	}
	if wa > 20 {
		t.Errorf("WA = %v, implausibly high", wa)
	}
	if f.HostWrites() != uint64(5*f.CapacityPages()) {
		t.Errorf("HostWrites = %d", f.HostWrites())
	}
}

func TestDRAMFootprint(t *testing.T) {
	dev := testDev(t, false)
	f := mustNew(t, dev, Config{})
	want := 8*f.CapacityPages() + 8*int64(dev.NumZones())*dev.ZonePages()
	if f.DRAMFootprintBytes() != want {
		t.Errorf("DRAMFootprintBytes = %d, want %d", f.DRAMFootprintBytes(), want)
	}
}

func TestGCModeString(t *testing.T) {
	if GCInline.String() != "inline" || GCIncremental.String() != "incremental" {
		t.Error("GCMode.String wrong")
	}
}

// Mapping invariants after heavy churn with both copy paths.
func TestMappingInvariants(t *testing.T) {
	for _, sc := range []bool{false, true} {
		dev := testDev(t, false)
		f := mustNew(t, dev, Config{UseSimpleCopy: sc, GCMode: GCIncremental})
		rng := rand.New(rand.NewSource(5))
		var at sim.Time
		for i := int64(0); i < 3*f.CapacityPages(); i++ {
			var err error
			at, err = f.Write(at, rng.Int63n(f.CapacityPages()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 {
				f.Trim(rng.Int63n(f.CapacityPages()), 1)
			}
		}
		for lpn, lba := range f.gc.L2P {
			if lba == unmapped {
				continue
			}
			if f.gc.P2L[lba] != int32(lpn) {
				t.Fatalf("simpleCopy=%v: l2p[%d]=%d but p2l=%d", sc, lpn, lba, f.gc.P2L[lba])
			}
		}
		perZone := make([]int64, dev.NumZones())
		for lba, lpn := range f.gc.P2L {
			if lpn != unmapped {
				z, _ := dev.ZoneOf(int64(lba))
				perZone[z]++
			}
		}
		for z, v := range perZone {
			if f.gc.Valid[z] != v {
				t.Fatalf("simpleCopy=%v: valid[%d]=%d but p2l says %d", sc, z, f.gc.Valid[z], v)
			}
		}
	}
}
