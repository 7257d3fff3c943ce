// Package ftl implements a conventional block-interface SSD: a page-mapped
// flash translation layer with garbage collection, overprovisioning, and
// wear leveling (§2.1 of the paper, "Conventional SSDs").
//
// The FTL exposes the flat, randomly-writable logical page address space the
// paper's block interface describes, and hides flash's erase-before-program
// constraint by:
//
//   - translating each logical page to a physical page (the mapping table
//     whose on-board DRAM cost §2.2 estimates at ~1 GB per TB),
//   - garbage collecting erasure blocks that hold a mixture of valid and
//     invalid pages, copying valid pages forward (the write amplification
//     of E2), and
//   - wear leveling by always allocating the least-erased free block.
//
// Garbage collection is device-opaque and foreground, exactly the behavior
// the paper blames for tail latency: when free space runs low, the write
// that trips the low-water mark stalls behind a full victim relocation and
// erase, and reads queued on the same LUNs wait behind the GC traffic.
package ftl

import (
	"errors"
	"fmt"
	"math/bits"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/telemetry"
)

// GCPolicy selects the victim-block policy.
type GCPolicy int

const (
	// Greedy picks the block with the fewest valid pages. Near-optimal for
	// uniform workloads.
	Greedy GCPolicy = iota
	// CostBenefit weighs reclaimable space against copy cost and block age
	// (the classic LFS/eNVy policy); better under skew.
	CostBenefit
)

// String implements fmt.Stringer.
func (p GCPolicy) String() string {
	if p == CostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// GCMode selects how the device schedules garbage collection.
type GCMode int

const (
	// GCForeground stalls the triggering write behind whole-victim
	// relocation — the classic opaque-device behavior (§2.4).
	GCForeground GCMode = iota
	// GCDeviceIncremental spreads relocation into small chunks per write,
	// the kindest plausible on-board controller (ablation A5).
	GCDeviceIncremental
)

// String implements fmt.Stringer.
func (m GCMode) String() string {
	if m == GCDeviceIncremental {
		return "device-incremental"
	}
	return "foreground"
}

// Config parameterizes the device.
type Config struct {
	Geom flash.Geometry
	Lat  flash.Latencies

	// OPFraction is the overprovisioned spare capacity as a fraction of the
	// usable (logical) capacity, matching the paper's "7-28% of the usable
	// capacity". Logical capacity = raw / (1 + OPFraction) - reserve.
	OPFraction float64

	// ReserveFraction is the minimal spare kept even at OPFraction = 0
	// (GC headroom and bad-block reserve). The paper's "no overprovisioning"
	// point still requires a sliver of spare for GC to make progress. The
	// default is 3.5% of raw blocks; E2 sets 4.2%, calibrated so its sweep
	// reproduces the paper's "15x with no overprovisioning". A floor of
	// 2*LUNs + GCLowWaterBlocks + 4 blocks guarantees GC can always find an
	// eligible victim (see maybeGC).
	ReserveFraction float64

	// GCPolicy selects the victim policy; default Greedy.
	GCPolicy GCPolicy

	// GCMode selects foreground (default) or device-incremental GC
	// scheduling.
	GCMode GCMode

	// GCChunkPages bounds relocation per host write in incremental mode.
	// Default 8.
	GCChunkPages int

	// GCLowWaterBlocks triggers foreground GC when the device's free page
	// slots (unwritten pages in open frontiers plus free blocks) fall to
	// this many blocks' worth. Default: 4.
	GCLowWaterBlocks int

	// HotColdSeparation directs GC copies to their own write frontiers
	// instead of mixing them with host writes. On by default (via New) to be
	// generous to the conventional baseline.
	HotColdSeparation bool

	// Streams enables the NVMe multi-stream writes directive (§2.3 of the
	// paper): hosts label related writes with a stream ID and the device
	// keeps each stream on its own erasure blocks. "Multi-streams are a
	// workaround to hosts' limited control over data placement in
	// conventional SSDs; the high hardware costs of conventional devices
	// remain." Default 1 (no streams).
	Streams int

	// TrimSupported makes Trim invalidate mapped pages, sparing GC from
	// copying dead data. On by default (via New).
	TrimSupported bool

	// StoreData keeps written payloads so reads can return them. Timing-only
	// experiments leave it off to save memory.
	StoreData bool

	// Endurance is the per-block erase budget passed to the flash layer;
	// 0 = unlimited.
	Endurance uint32

	// Recovery arms crash/recovery support: every host write stamps the
	// physical page's out-of-band area with (lpn, seq), and Recover can
	// rebuild the mapping table after flash.Device.CrashAt by scanning those
	// stamps. Costs O(total pages) memory in the flash layer, so fault
	// campaigns opt in per run. Payloads kept by StoreData do not survive
	// Recover (only the OOB metadata is journaled); integrity checking under
	// crashes goes through ReadMeta and the fault oracle instead.
	Recovery bool
}

// Errors returned by the device.
var (
	ErrOutOfSpace = errors.New("ftl: logical capacity exhausted")
	ErrOutOfRange = errors.New("ftl: logical page out of range")
	ErrUnmapped   = errors.New("ftl: read of unmapped logical page")
	ErrBadStream  = errors.New("ftl: stream ID out of range")
)

const unmapped = reclaim.Unmapped

// Device is a conventional SSD.
type Device struct {
	cfg    Config
	chip   *flash.Device
	geom   flash.Geometry
	pages  int // pages per block, cached
	blocks int // total erasure blocks, cached

	logicalPages int64

	// pending is relocation's deferred l2p stores (relocate, retireBlock):
	// empty whenever anything else can read the table.
	pending []l2pStore

	freePerLUN [][]int // free block IDs per LUN
	freeBit    []bool  // per-block free flag, mirrors freePerLUN
	freeCount  int
	// freeSlots counts programmable pages device-wide: unwritten pages in
	// open frontier blocks plus whole free blocks. GC triggers on slots, not
	// blocks, because frontier slots are just as usable as free blocks.
	freeSlots      int64
	thresholdSlots int64
	hostFront      [][]frontier // [stream][lun] host write frontiers
	// hostOpen[stream] has bit lun (word lun/64) set exactly when
	// hostFront[stream][lun] holds a block: at the GC reserve, where no empty
	// host frontier can take a free block, allocPage jumps over the empty
	// ones with it.
	hostOpen [][]uint64
	gcFront  []frontier // per-LUN GC write frontier (if separated)
	rr       []int      // per-stream round-robin cursor over LUNs, in [0, LUNs)
	gcRR     int        // the GC frontiers' cursor, in [0, LUNs)
	// hostResidual is the unwritten page slots in the blocks the host
	// frontier slots reference — the sum hostSlots needs on every host write,
	// kept as a counter by moveFrontier and consumeSlot.
	hostResidual int64

	// gc is the reclamation engine over blocks: the page map
	// (flash.Geometry.Validate keeps every device under 2^31 pages), the
	// victim index (victim.go), the incremental cursor, and the tenant blame
	// state.
	gc reclaim.Engine
	// retireHook and allocHook stand in for retireBlock and allocPage; the
	// differential test sets them (and gc.Copy) to the per-page versions
	// those replaced, production leaves them nil.
	retireHook func(at sim.Time, block int) sim.Time
	allocHook  func(stream int, gc bool) (block, page int, err error)

	data [][]byte // payload by logical page; nil unless StoreData

	// nextSeq is the monotone write sequence stamped into each programmed
	// page's OOB area when Config.Recovery is armed; the recovery scan's
	// newest-wins rule depends on it.
	nextSeq uint64

	counters stats.Counters
	gcRuns   uint64
	// lastGCStall records the duration of the most recent foreground GC
	// stall; exported via Stats for the scheduling experiments.
	lastGCStall sim.Time

	// Telemetry handles; both nil (zero-cost no-ops) without SetProbe.
	attr *telemetry.AttrSink
	fl   *telemetry.Flight
}

// l2pStore is one deferred mapping update: l2p[lpn] = ppn.
type l2pStore struct{ lpn, ppn int32 }

type frontier struct {
	block int // open block, -1 if none
}

// New builds a device. Zero-value config fields get defaults: 3.5% reserve
// (with a floor guaranteeing GC progress), greedy GC, a 4-block free-slot
// low-water mark, one write stream, and hot/cold separation and trim as
// configured (NewDefault enables both).
func New(cfg Config) (*Device, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.ReserveFraction == 0 {
		cfg.ReserveFraction = 0.035
	}
	if cfg.GCLowWaterBlocks == 0 {
		cfg.GCLowWaterBlocks = 4
	}
	if cfg.GCChunkPages <= 0 {
		cfg.GCChunkPages = 8
	}
	if cfg.OPFraction < 0 || cfg.OPFraction >= 1 {
		return nil, fmt.Errorf("ftl: OPFraction %v out of range [0,1)", cfg.OPFraction)
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}

	raw := cfg.Geom.TotalPages()
	blocks := cfg.Geom.TotalBlocks()
	// The reserve floor guarantees GC progress: even if every open frontier
	// block (2 per LUN) is stuffed with invalid pages, enough invalid pages
	// remain in closed blocks for pickVictim to find an eligible victim
	// whenever free slots run low.
	minReserveBlocks := (cfg.Streams+1)*cfg.Geom.LUNs() + cfg.GCLowWaterBlocks + 4
	reserveBlocks := max(int64(cfg.ReserveFraction*float64(blocks)), int64(minReserveBlocks))
	reserve := reserveBlocks * int64(cfg.Geom.PagesPerBlock)
	logical := int64(float64(raw)/(1+cfg.OPFraction)) - reserve
	if logical <= int64(cfg.Geom.PagesPerBlock) {
		return nil, fmt.Errorf("ftl: geometry too small for OP %.2f (raw %d pages, reserve %d)",
			cfg.OPFraction, raw, reserve)
	}

	chip := flash.New(cfg.Geom, cfg.Lat)
	chip.Endurance = cfg.Endurance

	d := &Device{
		cfg:          cfg,
		chip:         chip,
		geom:         cfg.Geom,
		pages:        cfg.Geom.PagesPerBlock,
		blocks:       blocks,
		logicalPages: logical,
		pending:      make([]l2pStore, 0, cfg.Geom.PagesPerBlock),
		freePerLUN:   make([][]int, cfg.Geom.LUNs()),
		freeBit:      make([]bool, blocks),
		hostFront:    make([][]frontier, cfg.Streams),
		hostOpen:     make([][]uint64, cfg.Streams),
		gcFront:      make([]frontier, cfg.Geom.LUNs()),
		rr:           make([]int, cfg.Streams),
		gc:           reclaim.New(blocks, cfg.Geom.PagesPerBlock, logical),
	}
	d.gc.Copy, d.gc.Erase, d.gc.LastKill = d.relocate, d.erase, make([]sim.Time, blocks)
	d.gc.Less, d.gc.Barrier = d.lessWorn, cfg.Recovery
	d.gc.Kind = telemetry.FlightGCVictim
	if cfg.GCPolicy == CostBenefit {
		d.gc.Score = d.costBenefit
	}
	for b := 0; b < blocks; b++ {
		d.addFree(b)
	}
	for st := range d.hostFront {
		d.hostFront[st] = make([]frontier, cfg.Geom.LUNs())
		d.hostOpen[st] = make([]uint64, (cfg.Geom.LUNs()+63)/64)
		for i := range d.hostFront[st] {
			d.hostFront[st][i].block = -1
		}
	}
	for i := range d.gcFront {
		d.gcFront[i].block = -1
	}
	d.freeSlots = raw
	d.thresholdSlots = int64(cfg.GCLowWaterBlocks) * int64(cfg.Geom.PagesPerBlock)
	if cfg.StoreData {
		d.data = make([][]byte, d.logicalPages)
	}
	if cfg.Recovery {
		chip.EnableRecovery()
		d.nextSeq = 1
	}
	return d, nil
}

// NewDefault builds a device with the conventional-baseline defaults the
// experiments use: hot/cold separation and trim enabled.
func NewDefault(geom flash.Geometry, lat flash.Latencies, opFraction float64) (*Device, error) {
	return New(Config{
		Geom:              geom,
		Lat:               lat,
		OPFraction:        opFraction,
		HotColdSeparation: true,
		TrimSupported:     true,
	})
}

// SetProbe attaches telemetry to the FTL and its flash chip: GC-stall
// attribution with polluter blame, and GC victim records in the flight
// recorder. Attach before driving I/O; a nil probe leaves every handle as a
// zero-cost no-op.
func (d *Device) SetProbe(p *telemetry.Probe) {
	d.chip.SetProbe(p)
	d.attr = p.Attribution()
	d.fl = p.Flight()
	d.gc.Attach(d.attr, d.fl)
}

// CapacityPages reports the logical (host-visible) capacity in pages.
func (d *Device) CapacityPages() int64 { return d.logicalPages }

// PageSize reports the page size in bytes.
func (d *Device) PageSize() int { return d.geom.PageSize }

// Counters returns the accounting counters.
func (d *Device) Counters() *stats.Counters { return &d.counters }

// GCRuns reports how many victim blocks GC has processed.
func (d *Device) GCRuns() uint64 { return d.gcRuns }

// LastGCStall reports the duration of the most recent foreground GC stall.
func (d *Device) LastGCStall() sim.Time { return d.lastGCStall }

// Flash exposes the underlying chip for wear inspection in tests/benches.
func (d *Device) Flash() *flash.Device { return d.chip }

// SetInjector attaches a fault injector to the underlying flash.
func (d *Device) SetInjector(inj *fault.Injector) { d.chip.SetInjector(inj) }

// DRAMFootprintBytes reports the on-board DRAM the FTL needs: 4 bytes per
// logical page for the mapping table (§2.2's estimate) plus 4 bytes per
// block of GC metadata.
func (d *Device) DRAMFootprintBytes() int64 {
	return 4*d.logicalPages + 4*int64(d.blocks)
}

func (d *Device) ppn(block, page int) int32 {
	return int32(block*d.pages + page)
}

func (d *Device) blockOf(ppn int32) int { return int(ppn) / d.pages }
func (d *Device) pageOf(ppn int32) int  { return int(ppn) % d.pages }

// allocPage returns the block and page next on the rotating frontier set of
// the given stream, pulling fresh free blocks (least-erased first, for wear
// leveling) as frontiers fill. gc selects the GC frontier set when
// separation is on.
func (d *Device) allocPage(stream int, gc bool) (block, page int, err error) {
	if d.allocHook != nil {
		return d.allocHook(stream, gc)
	}
	fronts, cursor, host := d.hostFront[stream], &d.rr[stream], true
	if gc && d.cfg.HotColdSeparation {
		fronts, cursor, host = d.gcFront, &d.gcRR, false
	}
	luns := len(fronts)
	// At the GC reserve a host frontier holding no block cannot take one, so
	// the scan would pass it changing nothing but the cursor: jump to the
	// next one that holds a block. The pool cannot grow during the scan.
	jump := !gc && d.freeCount <= gcReserveBlocks
	start := *cursor
	for try := 0; try < luns; try++ {
		if jump {
			if try += d.nextOpen(stream, wrap(start+try, luns)); try >= luns {
				break
			}
		}
		lun := wrap(start+try, luns)
		*cursor = wrap(lun+1, luns)
		f := &fronts[lun]
		// A frontier that grew bad (failed program) or was sealed by crash
		// recovery no longer accepts programs; fall through and replace it.
		if f.block >= 0 && d.chip.WrittenPages(f.block) < d.pages &&
			!d.chip.IsBad(f.block) && !d.chip.IsSealed(f.block) {
			return f.block, d.chip.WrittenPages(f.block), nil
		}
		if b, ok := d.takeFreeBlock(lun, gc); ok {
			d.moveFrontier(f, host, b)
			if host {
				d.setOpen(stream, lun, true)
			}
			return b, 0, nil
		}
		// Full frontier and no replacement: drop the reference so the full
		// block becomes a GC candidate instead of being pinned forever.
		d.moveFrontier(f, host, -1)
		if host {
			d.setOpen(stream, lun, false)
		}
	}
	*cursor = start
	return 0, 0, ErrOutOfSpace
}

// wrap reduces i, in [0, 2n), modulo n.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// setOpen records whether host frontier slot lun of stream holds a block.
func (d *Device) setOpen(stream, lun int, open bool) {
	w, bit := &d.hostOpen[stream][lun>>6], uint64(1)<<(lun&63)
	if open {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// nextOpen returns how many LUNs on from lun, cyclically, the next host
// frontier of stream that holds a block is: 0 if lun's does, the LUN count
// if none does.
func (d *Device) nextOpen(stream, lun int) int {
	words, luns := d.hostOpen[stream], len(d.hostFront[stream])
	for dist := 0; dist < luns; {
		if w := words[lun>>6] >> (lun & 63); w != 0 {
			return dist + bits.TrailingZeros64(w)
		}
		// No bit from lun to the end of its word (or of the LUNs, past
		// which no bit is set): go on from the next word's first LUN.
		next := min((lun|63)+1, luns)
		dist += next - lun
		lun = wrap(next, luns)
	}
	return luns
}

// moveFrontier points a frontier slot at block to (-1 for none). The block
// the slot leaves joins the GC victim index if it is reclaimable — this is
// the only way a block becomes a candidate outside Recover — and host slots
// keep hostResidual in step.
func (d *Device) moveFrontier(f *frontier, host bool, to int) {
	if old := f.block; old >= 0 {
		if host {
			d.hostResidual -= int64(d.pages - d.chip.WrittenPages(old))
		}
		d.enter(old)
	}
	f.block = to
	if host && to >= 0 {
		d.hostResidual += int64(d.pages - d.chip.WrittenPages(to))
	}
}

// consumeSlot accounts one successful program on the frontier block
// allocPage(_, gc) handed out.
func (d *Device) consumeSlot(gc bool) {
	d.freeSlots--
	if !gc || !d.cfg.HotColdSeparation {
		d.hostResidual--
	}
}

// gcReserveBlocks is the number of free blocks host allocation may never
// consume: they are kept for GC relocation so the collector can always make
// forward progress (without this, a burst of host writes can strand all
// remaining free space in host frontiers and deadlock reclamation).
const gcReserveBlocks = 2

// takeFreeBlock removes and returns the least-erased free block on lun,
// stealing from the richest LUN if lun is empty. Host allocation (gc ==
// false) may not dip into the GC reserve.
func (d *Device) takeFreeBlock(lun int, gc bool) (int, bool) {
	if !gc && d.freeCount <= gcReserveBlocks {
		return 0, false
	}
	list := d.freePerLUN[lun]
	if len(list) == 0 {
		richest, max := -1, 0
		for l, fl := range d.freePerLUN {
			if len(fl) > max {
				richest, max = l, len(fl)
			}
		}
		if richest < 0 {
			return 0, false
		}
		lun = richest
		list = d.freePerLUN[lun]
	}
	best := 0
	for i := 1; i < len(list); i++ {
		if d.chip.EraseCount(list[i]) < d.chip.EraseCount(list[best]) {
			best = i
		}
	}
	b := list[best]
	list[best] = list[len(list)-1]
	d.freePerLUN[lun] = list[:len(list)-1]
	d.freeBit[b] = false
	d.freeCount--
	return b, true
}

// WritePage writes one logical page on stream 0. data may be nil for
// timing-only use. The returned time is when the write completes, including
// any foreground GC stall it triggered.
func (d *Device) WritePage(at sim.Time, lpn int64, data []byte) (sim.Time, error) {
	return d.WritePageStream(at, lpn, 0, data)
}

// WritePageStream writes one logical page with a multi-stream directive
// stream ID (§2.3): the page lands on the stream's own erasure blocks, so
// data the host says is related is erased together.
func (d *Device) WritePageStream(at sim.Time, lpn int64, stream int, data []byte) (sim.Time, error) {
	if lpn < 0 || lpn >= d.logicalPages {
		return at, ErrOutOfRange
	}
	if stream < 0 || stream >= len(d.hostFront) {
		return at, ErrBadStream
	}
	// GC is parallel fan-out: its chip ops suspend the attribution sink
	// (maybeGC/forceGC suspend themselves) and the write is charged the
	// host-visible stall — exactly how far GC pushed its start time.
	gcFrom := at
	at = d.maybeGC(at)

	block, page, err := d.allocPage(stream, false)
	if err != nil {
		// This stream's frontiers are dry even though the device as a whole
		// passed the GC trigger: force a reclamation round and retry once.
		at = d.forceGC(at)
		if block, page, err = d.allocPage(stream, false); err != nil {
			return at, err
		}
	}
	d.attr.ChargeBlamed(telemetry.PhaseGCStall, at-gcFrom, d.gc.Culprit)
	var done sim.Time
	for attempt := 0; ; attempt++ {
		done, err = d.chip.ProgramPage(at, block, page)
		if err == nil {
			if d.cfg.Recovery {
				d.chip.StampOOB(block, page, lpn, d.nextSeq)
				d.nextSeq++
			}
			break
		}
		if err != flash.ErrProgramFailed || attempt >= 3 {
			return at, err
		}
		// The program failed and retired the block mid-write: handle the
		// grown-bad block (strip it from the frontiers, migrate its valid
		// pages) and re-drive the write on a fresh frontier. The whole
		// detour is charged as GC stall — to the host it is exactly that:
		// the write stalled behind device housekeeping.
		retryFrom := at
		at = d.retireBlock(done, block)
		if block, page, err = d.allocPage(stream, false); err != nil {
			at = d.forceGC(at)
			if block, page, err = d.allocPage(stream, false); err != nil {
				return at, err
			}
		}
		d.attr.Charge(telemetry.PhaseGCStall, at-retryFrom)
	}
	d.consumeSlot(false)
	d.gc.Bind(at, lpn, d.ppn(block, page))

	if d.data != nil && data != nil {
		d.data[lpn] = data
	}
	d.counters.HostWritePages++
	d.counters.FlashProgramPages++
	d.counters.PCIeBytes += uint64(d.geom.PageSize)
	return done, nil
}

// ReadPage reads one logical page. The returned payload is nil unless the
// device stores data and the page was written with a payload.
func (d *Device) ReadPage(at sim.Time, lpn int64) (sim.Time, []byte, error) {
	if lpn < 0 || lpn >= d.logicalPages {
		return at, nil, ErrOutOfRange
	}
	ppn := d.gc.L2P[lpn]
	if ppn == unmapped {
		return at, nil, ErrUnmapped
	}
	done, err := d.chip.ReadPage(at, d.blockOf(ppn), d.pageOf(ppn))
	if err != nil {
		return at, nil, err
	}
	d.counters.HostReadPages++
	d.counters.FlashReadPages++
	d.counters.PCIeBytes += uint64(d.geom.PageSize)
	var payload []byte
	if d.data != nil {
		payload = d.data[lpn]
	}
	return done, payload, nil
}

// ReadMeta reads one logical page and returns the out-of-band stamp the
// physical page carries. The integrity harness verifies every read against
// the fault oracle with it: gotLPN must equal lpn and seq must be a sequence
// number the oracle considers acceptable. Requires Config.Recovery (the OOB
// area only exists then).
func (d *Device) ReadMeta(at sim.Time, lpn int64) (done sim.Time, gotLPN int64, seq uint64, err error) {
	done, _, err = d.ReadPage(at, lpn)
	if err != nil {
		return done, -1, 0, err
	}
	ppn := d.gc.L2P[lpn]
	gotLPN, seq = d.chip.OOB(d.blockOf(ppn), d.pageOf(ppn))
	return done, gotLPN, seq, nil
}

// Trim unmaps n logical pages starting at lpn. With TrimSupported it
// invalidates the physical pages so GC does not copy dead data; without it
// the call is a no-op (the pre-TRIM world many conventional deployments
// lived in, and an ablation knob for E5).
func (d *Device) Trim(at sim.Time, lpn, n int64) error {
	if lpn < 0 || lpn+n > d.logicalPages {
		return ErrOutOfRange
	}
	if !d.cfg.TrimSupported {
		return nil
	}
	d.gc.Trim(at, lpn, n)
	if d.data != nil && n > 0 {
		clear(d.data[lpn : lpn+n])
	}
	return nil
}

// DropPayload forgets the stored payloads of n logical pages starting at
// lpn, host bookkeeping for a range no read can reach any more (a deleted
// file's extent): reads return no payload until the page is written again.
// Nothing else changes — no flash op, counter or telemetry, and the mapping
// and virtual time stay as they are, so without TrimSupported the stale
// pages still cost GC copies. Without StoreData it is a no-op.
func (d *Device) DropPayload(lpn, n int64) error {
	if lpn < 0 || n < 0 || lpn+n > d.logicalPages {
		return ErrOutOfRange
	}
	if d.data != nil {
		clear(d.data[lpn : lpn+n])
	}
	return nil
}

// FreeBlocks reports the current free-block count.
func (d *Device) FreeBlocks() int { return d.freeCount }

// NextSeq reports the sequence number the next stamped write will carry —
// the integrity oracle resyncs to it after recovery.
func (d *Device) NextSeq() uint64 { return d.nextSeq }
