package zns

import (
	"errors"
	"io"
	"testing"
	"testing/quick"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

func testGeom() flash.Geometry {
	return flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 8, PagesPerBlock: 16, PageSize: 4096}
}

func testCfg() Config {
	return Config{Geom: testGeom(), Lat: flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 4, MaxActive: 4, MaxOpen: 2, StoreData: true}
}

func mustNew(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testCfg()
	cfg.ZoneBlocks = testGeom().TotalBlocks() + 1
	if _, err := New(cfg); err == nil {
		t.Error("oversized ZoneBlocks accepted")
	}
	cfg = testCfg()
	cfg.MaxOpen = 10 // > MaxActive
	if _, err := New(cfg); err == nil {
		t.Error("MaxOpen > MaxActive accepted")
	}
	// 2^31 pages: past the flash layer's ceiling (and the host FTL's 4-byte
	// tables). An error before anything is allocated.
	cfg = testCfg()
	cfg.Geom = flash.Geometry{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 1 << 19, PageSize: 4096}
	if _, err := New(cfg); err == nil {
		t.Error("a 2^31-page device accepted")
	}
}

func TestLayout(t *testing.T) {
	d := mustNew(t, testCfg())
	// 32 blocks / 4 per zone = 8 zones of 64 pages.
	if d.NumZones() != 8 {
		t.Errorf("NumZones = %d, want 8", d.NumZones())
	}
	if d.ZonePages() != 64 {
		t.Errorf("ZonePages = %d, want 64", d.ZonePages())
	}
	lba := d.LBA(3, 10)
	z, o := d.ZoneOf(lba)
	if z != 3 || o != 10 {
		t.Errorf("ZoneOf(LBA(3,10)) = (%d,%d)", z, o)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[ZoneState]string{Empty: "empty", Open: "open",
		Closed: "closed", Full: "full", ReadOnly: "read-only", Offline: "offline"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if ZoneState(42).String() != "ZoneState(42)" {
		t.Error("unknown state String wrong")
	}
}

func TestSequentialWriteLifecycle(t *testing.T) {
	d := mustNew(t, testCfg())
	var at sim.Time
	// Zones start empty.
	if d.State(0) != Empty {
		t.Fatal("zone 0 not empty")
	}
	// Write the whole zone at the write pointer.
	for o := int64(0); o < d.ZonePages(); o++ {
		var err error
		at, err = d.Write(at, d.LBA(0, o), nil)
		if err != nil {
			t.Fatalf("write offset %d: %v", o, err)
		}
	}
	if d.State(0) != Full {
		t.Errorf("state after filling = %v, want full", d.State(0))
	}
	if d.WP(0) != d.ZonePages() {
		t.Errorf("WP = %d", d.WP(0))
	}
	// A full zone rejects writes.
	if _, err := d.Write(at, d.LBA(0, 0), nil); !errors.Is(err, ErrNotWritePtr) {
		t.Errorf("write to full zone at offset 0: %v", err)
	}
	// Reset returns it to empty and erases the blocks.
	done, err := d.Reset(at, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= at {
		t.Error("reset must take time (erases)")
	}
	if d.State(0) != Empty || d.WP(0) != 0 {
		t.Errorf("after reset: state=%v wp=%d", d.State(0), d.WP(0))
	}
	if d.Resets() != 1 {
		t.Errorf("Resets = %d", d.Resets())
	}
}

func TestWriteMustMatchWP(t *testing.T) {
	d := mustNew(t, testCfg())
	if _, err := d.Write(0, d.LBA(0, 5), nil); !errors.Is(err, ErrNotWritePtr) {
		t.Errorf("out-of-order write: %v, want ErrNotWritePtr", err)
	}
	at, _ := d.Write(0, d.LBA(0, 0), nil)
	// Writing offset 0 again must now fail: WP moved.
	if _, err := d.Write(at, d.LBA(0, 0), nil); !errors.Is(err, ErrNotWritePtr) {
		t.Errorf("stale-WP write: %v, want ErrNotWritePtr", err)
	}
}

func TestAppendAssignsLBAs(t *testing.T) {
	d := mustNew(t, testCfg())
	var at sim.Time
	for i := int64(0); i < 5; i++ {
		lba, done, err := d.Append(at, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lba != d.LBA(1, i) {
			t.Errorf("append %d: lba = %d, want %d", i, lba, d.LBA(1, i))
		}
		at = done
	}
	if d.Appends() != 5 {
		t.Errorf("Appends = %d", d.Appends())
	}
}

func TestReadAfterWrite(t *testing.T) {
	d := mustNew(t, testCfg())
	lba, at, err := d.Append(0, 0, []byte("zoned"))
	if err != nil {
		t.Fatal(err)
	}
	done, data, err := d.Read(at, lba)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "zoned" || done <= at {
		t.Errorf("read: data=%q done=%d", data, done)
	}
	// Reads beyond WP fail.
	if _, _, err := d.Read(at, lba+1); !errors.Is(err, ErrUnwritten) {
		t.Errorf("read beyond WP: %v", err)
	}
	if _, _, err := d.Read(at, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative lba: %v", err)
	}
}

func TestOpenCloseStateMachine(t *testing.T) {
	d := mustNew(t, testCfg())
	if err := d.Open(0, 0); err != nil {
		t.Fatal(err)
	}
	if d.State(0) != Open || d.OpenZones() != 1 || d.ActiveZones() != 1 {
		t.Fatalf("after open: %v open=%d active=%d", d.State(0), d.OpenZones(), d.ActiveZones())
	}
	if err := d.Close(0, 0); err != nil {
		t.Fatal(err)
	}
	if d.State(0) != Closed || d.OpenZones() != 0 || d.ActiveZones() != 1 {
		t.Fatalf("after close: %v open=%d active=%d", d.State(0), d.OpenZones(), d.ActiveZones())
	}
	// Closing a closed zone is invalid.
	if err := d.Close(0, 0); !errors.Is(err, ErrBadState) {
		t.Errorf("double close: %v", err)
	}
	// Writing to a closed zone implicitly reopens it.
	if _, err := d.Write(0, d.LBA(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if d.State(0) != Open {
		t.Error("write must reopen a closed zone")
	}
}

func TestOpenLimit(t *testing.T) {
	d := mustNew(t, testCfg()) // MaxOpen=2, MaxActive=4
	if err := d.Open(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Open(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Open(0, 2); !errors.Is(err, ErrTooManyOpen) {
		t.Errorf("third open: %v, want ErrTooManyOpen", err)
	}
	// Closing one frees an open slot but not an active slot.
	d.Close(0, 0)
	if err := d.Open(0, 2); err != nil {
		t.Fatal(err)
	}
	d.Close(0, 1)
	if err := d.Open(0, 3); err != nil {
		t.Fatal(err)
	}
	// Now 4 active (2 open + 2 closed): a 5th zone cannot be activated.
	d.Close(0, 2)
	if err := d.Open(0, 4); !errors.Is(err, ErrTooManyActive) {
		t.Errorf("fifth activation: %v, want ErrTooManyActive", err)
	}
	// Reset releases active resources.
	if _, err := d.Reset(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Open(0, 4); err != nil {
		t.Errorf("open after reset freed resources: %v", err)
	}
}

func TestFullZoneReleasesResources(t *testing.T) {
	d := mustNew(t, testCfg())
	var at sim.Time
	for o := int64(0); o < d.ZonePages(); o++ {
		var err error
		at, err = d.Write(at, d.LBA(0, o), nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.ActiveZones() != 0 || d.OpenZones() != 0 {
		t.Errorf("full zone must release resources: active=%d open=%d",
			d.ActiveZones(), d.OpenZones())
	}
}

func TestFinish(t *testing.T) {
	d := mustNew(t, testCfg())
	at, _ := d.Write(0, d.LBA(0, 0), nil)
	if err := d.Finish(at, 0); err != nil {
		t.Fatal(err)
	}
	if d.State(0) != Full || d.WP(0) != d.WritableCap(0) {
		t.Errorf("after finish: state=%v wp=%d", d.State(0), d.WP(0))
	}
	if d.ActiveZones() != 0 {
		t.Error("finish must release active resources")
	}
	// Finish of an empty zone is legal.
	if err := d.Finish(at, 1); err != nil {
		t.Fatal(err)
	}
	if d.State(1) != Full {
		t.Error("finished empty zone must be full")
	}
	// Finish of a full zone is invalid.
	if err := d.Finish(at, 0); !errors.Is(err, ErrBadState) {
		t.Errorf("finish full zone: %v", err)
	}
}

func TestZoneStriping(t *testing.T) {
	d := mustNew(t, testCfg())
	// Writes to one zone stripe across 4 LUNs: 4 sequential writes issued at
	// t=0 through the same zone must overlap on distinct LUNs. Use appends
	// issued at the same instant.
	var dones []sim.Time
	for i := 0; i < 4; i++ {
		_, done, err := d.Append(0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	// All four appends target distinct LUNs (blocks 0..3); channel-bus
	// serialization staggers them slightly, but program times overlap, so
	// the last completes well before 4 sequential program latencies.
	serial := 4 * d.chip.Lat.ProgramPage
	if dones[3] >= serial {
		t.Errorf("striped appends did not overlap: last done at %v, serial bound %v",
			dones[3], serial)
	}
}

func TestSimpleCopy(t *testing.T) {
	d := mustNew(t, testCfg())
	var at sim.Time
	var srcs []int64
	for i := 0; i < 3; i++ {
		lba, done, err := d.Append(at, 0, []byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, lba)
		at = done
	}
	pcieBefore := d.Counters().PCIeBytes
	first, done, err := d.SimpleCopy(at, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Counters().PCIeBytes != pcieBefore {
		t.Error("simple copy must not consume PCIe bandwidth (§2.3)")
	}
	if first != d.LBA(1, 0) {
		t.Errorf("first dst lba = %d", first)
	}
	if d.WP(1) != 3 {
		t.Errorf("dst WP = %d, want 3", d.WP(1))
	}
	// Payloads moved.
	_, data, err := d.Read(done, d.LBA(1, 1))
	if err != nil || string(data) != "b" {
		t.Errorf("copied payload: %q err=%v", data, err)
	}
	if d.Counters().GCCopyPages != 3 {
		t.Errorf("GCCopyPages = %d", d.Counters().GCCopyPages)
	}
	// Copy of unwritten source fails.
	if _, _, err := d.SimpleCopy(done, []int64{d.LBA(2, 0)}, 1); !errors.Is(err, ErrUnwritten) {
		t.Errorf("copy unwritten: %v", err)
	}
	// Copy overflowing the destination fails up front.
	big := make([]int64, d.ZonePages()+1)
	if _, _, err := d.SimpleCopy(done, big, 1); !errors.Is(err, ErrZoneFull) {
		t.Errorf("oversized copy: %v", err)
	}
}

// TestSimpleCopyErrorsLeaveSinkBalanced fails a simple copy on each early
// return after its Suspend, inside an armed measured IO: the record must
// end with no bracket open (End counts one otherwise), and the next IO's
// phases must still sum to its latency.
func TestSimpleCopyErrorsLeaveSinkBalanced(t *testing.T) {
	// Each case starts with zone 0 open and one page written, and returns
	// the copy's sources and destination zone.
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, d *Device, at sim.Time) ([]int64, int)
		want  error
	}{
		{"out_of_range_source", func(t *testing.T, d *Device, at sim.Time) ([]int64, int) {
			return []int64{0, int64(d.NumZones()) * d.ZonePages()}, 1
		}, ErrOutOfRange},
		{"unwritten_source", func(t *testing.T, d *Device, at sim.Time) ([]int64, int) {
			return []int64{0, d.LBA(2, 0)}, 1
		}, ErrUnwritten},
		{"active_limit", func(t *testing.T, d *Device, at sim.Time) ([]int64, int) {
			for z := 1; z < d.MaxActive(); z++ {
				if err := d.Open(at, z); err != nil {
					t.Fatal(err)
				}
				if err := d.Close(at, z); err != nil {
					t.Fatal(err)
				}
			}
			return []int64{0}, d.MaxActive()
		}, ErrTooManyActive},
		{"program_failure", func(t *testing.T, d *Device, at sim.Time) ([]int64, int) {
			d.SetInjector(fault.New(fault.Profile{Name: "certain", ProgramFailBase: 1}, 1))
			return []int64{0}, 1
		}, ErrZoneReadOnly},
		{"uncorrectable_source", func(t *testing.T, d *Device, at sim.Time) ([]int64, int) {
			d.SetInjector(fault.New(fault.Profile{Name: "certain", ReadTransientProb: 1}, 1))
			return []int64{0}, 1
		}, flash.ErrUncorrectable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := mustNew(t, testCfg())
			probe := telemetry.NewProbe(telemetry.Options{})
			probe.FlightRec.DumpTo = io.Discard
			d.SetProbe(probe)
			sink := probe.Attribution()
			_, at, err := d.Append(0, 0, []byte("a"))
			if err != nil {
				t.Fatal(err)
			}
			srcs, dst := tc.setup(t, d, at)

			sink.BeginTenant(telemetry.OpWrite, 0, at)
			if _, _, err := d.SimpleCopy(at, srcs, dst); !errors.Is(err, tc.want) {
				t.Fatalf("SimpleCopy err = %v, want %v", err, tc.want)
			}
			sink.End(at) // the failed copy charged nothing
			if v := sink.Violations(); v != 0 {
				t.Fatalf("failed copy left a bracket open: violations = %d", v)
			}

			d.SetInjector(nil)
			before := sink.Snapshot()
			sink.BeginTenant(telemetry.OpWrite, 0, at)
			_, done, err := d.Append(at, 0, []byte("b"))
			if err != nil {
				t.Fatal(err)
			}
			sink.End(done)
			w := sink.Snapshot().Delta(before).Ops[telemetry.OpWrite]
			var sum sim.Time
			for _, v := range w.PhaseSum {
				sum += v
			}
			if sink.Violations() != 0 || w.Count != 1 || w.TotalSum != done-at || sum != w.TotalSum {
				t.Fatalf("next IO: count %d, total %v, phases sum %v, want 1, %v, %v (violations %d)",
					w.Count, w.TotalSum, sum, done-at, done-at, sink.Violations())
			}
		})
	}
}

func TestResetWearShrinksZone(t *testing.T) {
	cfg := testCfg()
	cfg.Endurance = 2
	d := mustNew(t, cfg)
	var at sim.Time
	// Two full write+reset cycles exhaust endurance; the third reset after
	// writing retires all 4 blocks -> zone offline.
	for cycle := 0; cycle < 3; cycle++ {
		for o := int64(0); o < d.WritableCap(0); o++ {
			var err error
			at, err = d.Write(at, d.LBA(0, o), nil)
			if err != nil {
				t.Fatalf("cycle %d write: %v", cycle, err)
			}
		}
		var err error
		at, err = d.Reset(at, 0)
		if cycle < 2 {
			if err != nil {
				t.Fatalf("cycle %d reset: %v", cycle, err)
			}
			continue
		}
		// Third reset: every block hits the endurance wall.
		if d.State(0) != Offline {
			t.Errorf("state after wear-out = %v, want offline", d.State(0))
		}
		if d.WritableCap(0) != 0 {
			t.Errorf("cap = %d, want 0", d.WritableCap(0))
		}
	}
	// Offline zones reject everything.
	if _, err := d.Reset(at, 0); !errors.Is(err, ErrOffline) {
		t.Errorf("reset offline: %v", err)
	}
	if err := d.Open(at, 0); !errors.Is(err, ErrOffline) {
		t.Errorf("open offline: %v", err)
	}
	if _, _, err := d.Read(at, d.LBA(0, 0)); !errors.Is(err, ErrOffline) {
		t.Errorf("read offline: %v", err)
	}
}

func TestDRAMFootprintTiny(t *testing.T) {
	d := mustNew(t, testCfg())
	// 4 B per block + 16 B per zone: far below the conventional 4 B/page.
	want := int64(4*32 + 16*8)
	if d.DRAMFootprintBytes() != want {
		t.Errorf("DRAMFootprintBytes = %d, want %d", d.DRAMFootprintBytes(), want)
	}
}

func TestZoneReport(t *testing.T) {
	d := mustNew(t, testCfg())
	d.Append(0, 2, nil)
	rep := d.ZoneReport()
	if len(rep) != 8 {
		t.Fatalf("report rows = %d", len(rep))
	}
	if rep[2].State != Open || rep[2].WP != 1 || rep[2].Zone != 2 {
		t.Errorf("report[2] = %+v", rep[2])
	}
}

func TestNoDeviceGC(t *testing.T) {
	// The ZNS FTL never moves data on its own: flash programs == host
	// writes + explicit simple copies, always.
	d := mustNew(t, testCfg())
	var at sim.Time
	for z := 0; z < 2; z++ {
		for o := int64(0); o < d.ZonePages(); o++ {
			var err error
			at, err = d.Write(at, d.LBA(z, o), nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		at, _ = d.Reset(at, z)
	}
	c := d.Counters()
	if c.FlashProgramPages != c.HostWritePages {
		t.Errorf("device moved data on its own: programs=%d host=%d",
			c.FlashProgramPages, c.HostWritePages)
	}
	if got := c.WriteAmp(); got != 1.0 {
		t.Errorf("ZNS device WA = %v, want exactly 1.0", got)
	}
}

// Property: for any interleaving of appends and resets on one zone, the WP
// never exceeds capacity, state remains consistent with WP, and assigned
// LBAs are strictly increasing between resets.
func TestZoneInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		cfg := testCfg()
		cfg.MaxActive, cfg.MaxOpen = 0, 0
		d, err := New(cfg)
		if err != nil {
			return false
		}
		var at sim.Time
		lastLBA := int64(-1)
		for _, isReset := range ops {
			if isReset {
				if _, err := d.Reset(at, 0); err != nil {
					return false
				}
				lastLBA = -1
				continue
			}
			lba, done, err := d.Append(at, 0, nil)
			if errors.Is(err, ErrZoneFull) {
				continue
			}
			if err != nil {
				return false
			}
			if lba <= lastLBA {
				return false
			}
			lastLBA = lba
			at = done
			if d.WP(0) > d.WritableCap(0) {
				return false
			}
			if d.WP(0) == d.WritableCap(0) && d.State(0) != Full {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the device's active/open accounting always equals the counts
// derived from zone states, under arbitrary op sequences and limits.
func TestActiveAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := testCfg()
		cfg.MaxActive, cfg.MaxOpen = 5, 3
		d, err := New(cfg)
		if err != nil {
			return false
		}
		var at sim.Time
		for _, op := range ops {
			z := int(op) % d.NumZones()
			switch op % 5 {
			case 0:
				d.Open(at, z)
			case 1:
				d.Close(at, z)
			case 2:
				d.Finish(at, z)
			case 3:
				if done, err := d.Reset(at, z); err == nil {
					at = done
				}
			case 4:
				if _, done, err := d.Append(at, z, nil); err == nil {
					at = done
				}
			}
			open, closed := 0, 0
			for i := 0; i < d.NumZones(); i++ {
				switch d.State(i) {
				case Open:
					open++
				case Closed:
					closed++
				}
			}
			if d.OpenZones() != open || d.ActiveZones() != open+closed {
				return false
			}
			if d.OpenZones() > cfg.MaxOpen || d.ActiveZones() > cfg.MaxActive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: flash programs never exceed (erases+1) * pages per block, and
// the ZNS device's counters never drift from the chip's.
func TestCounterConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := testCfg()
		cfg.MaxActive, cfg.MaxOpen = 0, 0
		d, err := New(cfg)
		if err != nil {
			return false
		}
		var at sim.Time
		for _, op := range ops {
			z := int(op) % d.NumZones()
			if op%7 == 0 {
				if done, err := d.Reset(at, z); err == nil {
					at = done
				}
				continue
			}
			if _, done, err := d.Append(at, z, nil); err == nil {
				at = done
			}
		}
		c := d.Counters()
		chip := d.Flash().Counts()
		return c.FlashProgramPages == chip.Programs && c.BlockErases <= chip.Erases
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
