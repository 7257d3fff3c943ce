package ftl

import (
	"errors"
	"io"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// recoveryFTL builds a small page-mapped device with recovery armed.
func recoveryFTL(t *testing.T) *Device {
	t.Helper()
	d, err := New(Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 8, PagesPerBlock: 16, PageSize: 4096},
		Lat:           flash.LatenciesFor(flash.TLC),
		OPFraction:    0.25,
		TrimSupported: true,
		Recovery:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecoverRebuildsMapping: after a crash the OOB scan rebuilds the full
// logical-to-physical map, newest version wins for overwritten pages, and
// the sequence counter resumes past everything observed.
func TestRecoverRebuildsMapping(t *testing.T) {
	d := recoveryFTL(t)
	n := d.CapacityPages()
	var at sim.Time
	var writes uint64
	wantSeq := make(map[int64]uint64)
	write := func(lpn int64) {
		done, err := d.WritePage(at, lpn, nil)
		if err != nil {
			t.Fatalf("write lpn %d: %v", lpn, err)
		}
		at = done
		writes++
		wantSeq[lpn] = writes
	}
	for lpn := int64(0); lpn < n; lpn++ {
		write(lpn)
	}
	// Overwrite a slice of the space so stale versions exist on the media
	// and the scan must pick the winners.
	for lpn := int64(0); lpn < n/2; lpn++ {
		write(lpn)
	}

	rep, err := d.Recover(at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostPages != 0 {
		t.Fatalf("crash at the settled clock lost %d pages", rep.LostPages)
	}
	if rep.RecoveredMappings != n {
		t.Fatalf("recovered %d mappings, want %d", rep.RecoveredMappings, n)
	}
	// The conventional scan reads every written page's OOB area: strictly
	// more reads than live pages (stale versions included).
	if rep.ScannedPages <= n {
		t.Fatalf("scanned %d pages, want > %d (stale versions scanned too)", rep.ScannedPages, n)
	}
	for lpn := int64(0); lpn < n; lpn++ {
		_, gotLPN, seq, err := d.ReadMeta(rep.RecoveredAt, lpn)
		if err != nil {
			t.Fatalf("ReadMeta(%d) after recovery: %v", lpn, err)
		}
		if gotLPN != lpn || seq != wantSeq[lpn] {
			t.Fatalf("lpn %d recovered to (lpn %d, seq %d), want seq %d",
				lpn, gotLPN, seq, wantSeq[lpn])
		}
	}
	if got := d.NextSeq(); got != writes+1 {
		t.Fatalf("NextSeq after recovery = %d, want %d", got, writes+1)
	}
	// The device is writable again and keeps stamping monotonically.
	done, err := d.WritePage(rep.RecoveredAt, 0, nil)
	if err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if _, _, seq, err := d.ReadMeta(done, 0); err != nil || seq != writes+1 {
		t.Fatalf("post-recovery write has seq %d (err %v), want %d", seq, err, writes+1)
	}
}

// TestRecoverDropsInFlight: a write still in flight at the cut is dropped
// and the page falls back to its durable predecessor.
func TestRecoverDropsInFlight(t *testing.T) {
	d := recoveryFTL(t)
	d1, err := d.WritePage(0, 0, nil) // seq 1, durable
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(d1, 0, nil); err != nil { // seq 2, in flight at d1
		t.Fatal(err)
	}
	rep, err := d.Recover(d1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostPages == 0 {
		t.Fatal("in-flight write not reported lost")
	}
	_, _, seq, err := d.ReadMeta(rep.RecoveredAt, 0)
	if err != nil || seq != 1 {
		t.Fatalf("lpn 0 recovered to seq %d (err %v), want durable seq 1", seq, err)
	}
}

// TestRecoverResurrectsTrimmed: trims are DRAM metadata, so a crash legally
// resurrects the durable copy — the documented (and oracle-sanctioned)
// behavior.
func TestRecoverResurrectsTrimmed(t *testing.T) {
	d := recoveryFTL(t)
	done, err := d.WritePage(0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(done, 7, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.ReadMeta(done, 7); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("trimmed page: err = %v, want ErrUnmapped", err)
	}
	rep, err := d.Recover(done)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, seq, err := d.ReadMeta(rep.RecoveredAt, 7); err != nil || seq != 1 {
		t.Fatalf("trimmed page after crash: seq %d, err %v; want the durable copy back", seq, err)
	}
}

// TestRecoverRequiresRecoveryConfig: Recover on a device built without
// Config.Recovery is refused.
func TestRecoverRequiresRecoveryConfig(t *testing.T) {
	d, err := NewDefault(flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 8, PagesPerBlock: 16, PageSize: 4096},
		flash.LatenciesFor(flash.TLC), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(0); err == nil {
		t.Fatal("Recover without Config.Recovery succeeded")
	}
}

// TestSuspendingPathsLeaveSinkBalanced runs forced GC, a grown-bad block's
// retirement and crash recovery, the paths that suspend attribution beside
// the write path's own GC, each inside an armed record. End counts a Suspend
// still open as a violation, so each path must leave the sink as it found
// it.
func TestSuspendingPathsLeaveSinkBalanced(t *testing.T) {
	d := recoveryFTL(t)
	probe := telemetry.NewProbe()
	probe.FlightRec.DumpTo = io.Discard
	d.SetProbe(probe)
	sink := probe.Attribution()
	n := d.CapacityPages()
	var at sim.Time
	for i := int64(0); i < n+n/2; i++ {
		done, err := d.WritePage(at, i%n, nil)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	for _, c := range []struct {
		name string
		run  func(at sim.Time) sim.Time
	}{
		{"forceGC", d.forceGC},
		{"retireBlock", func(at sim.Time) sim.Time { return d.retireBlock(at, d.blockOf(d.gc.L2P[0])) }},
		{"Recover", func(at sim.Time) sim.Time {
			if _, err := d.Recover(at); err != nil {
				t.Fatal(err)
			}
			return at
		}},
	} {
		sink.BeginTenant(telemetry.OpWrite, 0, at)
		c.run(at)
		sink.End(at) // suspended work charges the open record nothing
		if v := sink.Violations(); v != 0 {
			t.Fatalf("%s left a bracket open: violations = %d", c.name, v)
		}
	}
}
