package ftl

import (
	"errors"
	"slices"

	"blockhead/internal/fault"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// Recover models a power loss at crashAt followed by a restart of the
// conventional FTL. The flash layer is truncated to its durable prefix
// (flash.Device.CrashAt, which may move the instant up to the latest erase
// issue; the report's CrashAt says when), every piece of volatile FTL state — the mapping
// table, valid counts, frontiers, the free pool — is discarded, and the
// mapping is rebuilt the way a page-mapped FTL without a persisted journal
// has to: by reading every written page and parsing its out-of-band stamp,
// newest sequence number winning. That scan is the conventional design's
// recovery bill — O(written pages) timed flash reads — and the asymmetry
// against the ZNS stack's O(blocks) write-pointer rediscovery is exactly the
// mapping-persistence cost the paper's §2.2 attributes to device-side FTLs.
//
// After the scan, partially-written blocks are sealed (their torn frontiers
// refuse further programs until GC erases them), blocks truncated to zero
// are re-erased (their cells are indeterminate), and the free pool is
// rebuilt from fully-erased blocks. Requires Config.Recovery.
func (d *Device) Recover(crashAt sim.Time) (fault.RecoveryReport, error) {
	if !d.chip.RecoveryEnabled() {
		return fault.RecoveryReport{}, errors.New("ftl: recovery not armed (Config.Recovery)")
	}
	cs := d.chip.CrashAt(crashAt)
	rep := fault.RecoveryReport{
		Stack:      "conventional",
		CrashAt:    cs.At,
		LostPages:  cs.LostPages,
		TornBlocks: len(cs.Torn),
	}

	// Wipe volatile state. Payloads kept by StoreData are DRAM-resident in
	// this model and do not survive; integrity under crashes is checked via
	// ReadMeta and the OOB sequence stamps instead.
	d.gc.Forget()
	for i := range d.freePerLUN {
		d.freePerLUN[i] = d.freePerLUN[i][:0]
	}
	clear(d.freeBit)
	d.freeCount = 0
	for st := range d.hostFront {
		for i := range d.hostFront[st] {
			d.hostFront[st][i].block = -1
		}
	}
	for i := range d.gcFront {
		d.gcFront[i].block = -1
	}
	d.hostResidual = 0
	clear(d.data)

	// Recovery reads are maintenance traffic, not attributable host IO.
	d.attr.Suspend()
	defer d.attr.Resume()

	at := cs.At
	var maxSeq uint64
	for b := 0; b < d.blocks; b++ {
		w := d.chip.WrittenPages(b)
		if w > 0 {
			rep.ScannedBlocks++
		}
		for p := 0; p < w; p++ {
			done, err := d.chip.ReadPage(at, b, p)
			rep.ScannedPages++
			at = done
			if err != nil {
				// Uncorrectable scan read: the stamp is unreadable, so any
				// mapping this page held is lost in a detected way.
				rep.UnreadablePages++
				continue
			}
			lpn, seq := d.chip.OOB(b, p)
			if lpn < 0 {
				continue
			}
			maxSeq = max(maxSeq, seq)
			if old := d.gc.L2P[lpn]; old != unmapped {
				if _, oldSeq := d.chip.OOB(d.blockOf(old), d.pageOf(old)); seq <= oldSeq {
					continue
				}
			}
			d.gc.Rebuild(lpn, d.ppn(b, p))
		}
		switch {
		case d.chip.IsBad(b):
			// Retired: out of the free pool forever, but its valid pages
			// (rebuilt above) stay readable.
		case w == 0 && slices.Contains(cs.Torn, b):
			// Truncated to zero written pages: the cells are indeterminate,
			// so erase before trusting the block again.
			if done, err := d.chip.EraseBlock(at, b); err == nil {
				at = done
				rep.ErasedBlocks++
				d.counters.BlockErases++
				d.addFree(b)
			}
		case w == 0:
			d.addFree(b)
		case w < d.pages:
			// Torn write frontier: close it to further programs and let GC
			// reclaim it with an erase.
			d.chip.SealBlock(b)
			rep.SealedBlocks++
		}
	}
	// Valid counts are final only now (a later block's newer copy demotes an
	// earlier block's page), and no frontier is open: every closed block is
	// a GC candidate.
	for b := 0; b < d.blocks; b++ {
		d.enter(b)
	}
	d.nextSeq = maxSeq + 1
	d.freeSlots = int64(d.freeCount) * int64(d.pages)
	rep.RecoveredMappings = d.gc.Mapped()
	rep.RecoveredAt = at
	d.fl.Record(at, telemetry.FlightRecover, -1, "ftl", rep.RecoveredMappings)
	return rep, nil
}

// addFree returns a fully-erased block to the free pool.
func (d *Device) addFree(b int) {
	lun := d.geom.LUNOfBlock(b)
	d.freePerLUN[lun] = append(d.freePerLUN[lun], b)
	d.freeBit[b] = true
	d.freeCount++
}
