package zns

import (
	"errors"

	"blockhead/internal/fault"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// Recover models a power loss at crashAt followed by a restart of the zoned
// device. The flash layer is truncated to its durable prefix
// (flash.Device.CrashAt, which may move the instant up to the latest erase
// issue; the report's CrashAt says when) and each zone's write pointer is rediscovered from
// the per-block program counts the flash array itself persists — one
// confirming read per written block, O(blocks) total. That constant-per-zone
// cost is the structural asymmetry against the conventional FTL's O(written
// pages) out-of-band mapping scan (§2.2): the zone abstraction makes the
// write pointer the only mapping state there is.
//
// Per-zone outcome:
//
//   - Offline and ReadOnly zones are sticky (the stripe still has a
//     grown-bad block); ReadOnly write pointers are re-derived so surviving
//     data stays readable.
//   - Zones with no durable pages return to Empty. Blocks whose in-flight
//     programs were truncated to nothing have indeterminate cells and are
//     re-erased first.
//   - Zones with any durable data freeze Full at the maximal written extent.
//     Programs that were in flight at the crash leave holes below the write
//     pointer; reading a hole reports flash.ErrUnwritten, and ZNS offers no
//     way to resume writing mid-zone, so the host must treat the zone as
//     sealed and reclaim it by reset.
//
// Open/Closed zones cannot survive: the active/open write-buffer resources
// are volatile. Payloads kept by StoreData are DRAM-resident in this model
// and do not survive; integrity under crashes is checked via ReadMeta and
// the host FTL's OOB stamps instead. Requires Config.Recovery.
func (d *Device) Recover(crashAt sim.Time) (fault.RecoveryReport, error) {
	if !d.chip.RecoveryEnabled() {
		return fault.RecoveryReport{}, errors.New("zns: recovery not armed (Config.Recovery)")
	}
	cs := d.chip.CrashAt(crashAt)
	rep := fault.RecoveryReport{
		Stack:      "zns",
		CrashAt:    cs.At,
		LostPages:  cs.LostPages,
		TornBlocks: len(cs.Torn),
	}
	clear(d.data)

	// Recovery traffic is maintenance, not attributable host IO.
	d.attr.Suspend()
	defer d.attr.Resume()

	at := cs.At
	for _, b := range cs.Torn {
		// Truncated to zero durable pages: the cells are indeterminate, so
		// erase before trusting the block again. A failed erase grows the
		// block bad; its zone discovers that at the next program or reset.
		if done, err := d.chip.EraseBlock(at, b); err == nil {
			at = done
			rep.ErasedBlocks++
			d.counters.BlockErases++
		}
	}

	for z := range d.zones {
		zn := &d.zones[z]
		if zn.state == Offline {
			rep.ZonesOffline++
			continue
		}
		// Write-pointer rediscovery: the maximal extent covered by the
		// stripe's durable per-block prefixes.
		w := int64(len(zn.blocks))
		var extent int64
		for j, b := range zn.blocks {
			c := int64(d.chip.WrittenPages(b))
			if c == 0 {
				continue
			}
			rep.ScannedBlocks++
			rep.ScannedPages++
			if done, err := d.chip.ReadPage(at, b, 0); err != nil {
				rep.UnreadablePages++
			} else {
				at = done
			}
			if e := (c-1)*w + int64(j) + 1; e > extent {
				extent = e
			}
		}
		wasReadOnly := zn.state == ReadOnly
		d.release(zn)
		zn.wp = extent
		switch {
		case wasReadOnly:
			rep.ZonesReadOnly++
		case extent == 0:
			d.transition(at, z, Empty)
			rep.ZonesEmpty++
		default:
			d.transition(at, z, Full)
			rep.ZonesFull++
		}
	}
	rep.RecoveredAt = at
	d.fl.Record(at, telemetry.FlightRecover, -1, "zns", int64(rep.ZonesFull))
	return rep, nil
}
