package hostftl

import (
	"errors"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/zalloc"
	"blockhead/internal/zns"
)

// Recover models a power loss at crashAt followed by a restart of the whole
// ZNS stack. The device rediscovers its write pointers first
// (zns.Device.Recover, O(blocks)); then the host rebuilds its own mapping
// table by scanning the out-of-band stamps below each recovered write
// pointer, newest sequence number winning — the host-side analogue of the
// conventional FTL's recovery scan, except the host chooses the policy: a
// production dm-zoned-style layer would checkpoint its map and replay a
// tail, but the simulator models the worst-case full scan so the two stacks
// are compared on equal (pessimal) footing. Holes below a write pointer —
// programs that were in flight at the crash — read as flash.ErrUnwritten
// and are skipped; fully-dead Full zones are reset back into the free pool.
//
// The returned report is the device's, extended with the host scan's pages
// and rebuilt mapping count. Requires the device to have been built with
// zns.Config.Recovery.
func (f *FTL) Recover(crashAt sim.Time) (fault.RecoveryReport, error) {
	rep, err := f.dev.Recover(crashAt)
	if err != nil {
		return rep, err
	}

	// Wipe volatile host state: the mapping, valid counts, open-zone slots,
	// reclamation cursors, and the free pool are all host DRAM.
	f.gc.Forget()
	f.freeZones = zalloc.NewRing(f.dev.NumZones())
	for s := range f.streamZone {
		for j := range f.streamZone[s] {
			f.streamZone[s][j] = -1
		}
	}
	f.gcZone = -1

	// Recovery reads are maintenance traffic, not attributable host IO.
	f.attr.Suspend()
	defer f.attr.Resume()

	at := rep.RecoveredAt
	var maxSeq uint64
	for z := 0; z < f.dev.NumZones(); z++ {
		switch f.dev.State(z) {
		case zns.Offline:
			continue
		case zns.Empty:
			f.freeZones.Push(z)
			continue
		case zns.Open, zns.Closed, zns.Full, zns.ReadOnly:
			// Holds data: rediscover its write pointer below.
		}
		wp := f.dev.WP(z)
		for o := int64(0); o < wp; o++ {
			lba := f.dev.LBA(z, o)
			done, lpn, seq, err := f.dev.ReadMeta(at, lba)
			rep.ScannedPages++
			if errors.Is(err, flash.ErrUnwritten) {
				continue // hole: an in-flight program the crash erased
			}
			if err != nil {
				rep.UnreadablePages++
				continue
			}
			at = done
			if lpn < 0 || lpn >= f.logicalPages {
				continue // never stamped: relocation orphan or pre-recovery garbage
			}
			maxSeq = max(maxSeq, seq)
			if old := f.gc.L2P[lpn]; old != unmapped {
				if _, oldSeq := f.dev.OOB(int64(old)); seq <= oldSeq {
					continue // equal seqs are identical copies; first wins
				}
			}
			f.gc.Rebuild(lpn, int32(lba))
		}
	}
	f.nextSeq = maxSeq + 1

	// Zones the scan proved fully dead (every surviving page superseded or
	// orphaned) go straight back to the pool. No slot is open: every other
	// zone that can be reset is a victim candidate.
	for z := 0; z < f.dev.NumZones(); z++ {
		if f.dev.State(z) == zns.Full && f.gc.Valid[z] == 0 {
			if done, err := f.dev.Reset(at, z); err == nil {
				at = done
				if f.dev.State(z) == zns.Empty {
					f.freeZones.Push(z)
				}
			}
		}
		f.enter(z)
	}
	rep.RecoveredMappings = f.gc.Mapped()
	rep.RecoveredAt = at
	f.fl.Record(at, telemetry.FlightRecover, -1, "hostftl", rep.RecoveredMappings)
	return rep, nil
}

// ReadMeta reads a logical page and returns the (lpn, seq) stamp of the
// physical page that served it — the integrity oracle's verification hook.
// Requires recovery to be armed.
func (f *FTL) ReadMeta(at sim.Time, lpn int64) (done sim.Time, gotLPN int64, seq uint64, err error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return at, -1, 0, ErrOutOfRange
	}
	lba := f.gc.L2P[lpn]
	if lba == unmapped {
		return at, -1, 0, ErrUnmapped
	}
	done, gotLPN, seq, err = f.dev.ReadMeta(at, int64(lba))
	if err != nil {
		return done, -1, 0, err
	}
	f.hostReads++
	return done, gotLPN, seq, nil
}
