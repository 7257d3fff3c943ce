// Package flash models NAND flash at the level the paper's §2.1 primer
// describes: pages grouped into erasure blocks, blocks grouped into planes,
// planes into dies, dies into channels. Reads happen at page granularity,
// pages within a block must be programmed sequentially, and a block must be
// erased before its pages can be programmed again. Erase takes several times
// longer than program (~6x for TLC, per the paper).
//
// Both device models in this repository — the conventional page-mapped FTL
// (internal/ftl) and the ZNS device (internal/zns) — are built on this one
// package, so comparisons between them isolate the interface, which is the
// paper's argument.
//
// Timing: each plane is an independent execution unit (LUN) with busy-until
// semantics; each channel is a shared bus that serializes page transfers.
// The model is the standard first-order contention model used by SSD
// simulators (FEMU, MQSim): completion time = queueing + cell time + bus
// time.
package flash

import (
	"errors"
	"fmt"
	"math"

	"blockhead/internal/fault"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// CellType is the number of bits stored per NAND cell (§2.1).
type CellType int

const (
	SLC CellType = 1 // 1 bit/cell
	MLC CellType = 2
	TLC CellType = 3
	QLC CellType = 4
	PLC CellType = 5
)

// String implements fmt.Stringer.
func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	case PLC:
		return "PLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// Latencies holds the per-operation timing of a flash part.
type Latencies struct {
	ReadPage    sim.Time // cell sense time for one page
	ProgramPage sim.Time // cell program time for one page
	EraseBlock  sim.Time // erase time for one erasure block
	XferPage    sim.Time // channel bus time to move one page to/from the host
}

// LatenciesFor returns representative latencies for a cell type. The TLC
// profile is the repository default and satisfies the paper's §2.1 claim
// that erase takes ~6x as long as program.
func LatenciesFor(c CellType) Latencies {
	switch c {
	case SLC:
		return Latencies{ReadPage: 25 * sim.Microsecond, ProgramPage: 200 * sim.Microsecond,
			EraseBlock: 1500 * sim.Microsecond, XferPage: 3300 * sim.Nanosecond}
	case MLC:
		return Latencies{ReadPage: 50 * sim.Microsecond, ProgramPage: 600 * sim.Microsecond,
			EraseBlock: 3600 * sim.Microsecond, XferPage: 3300 * sim.Nanosecond}
	case QLC:
		return Latencies{ReadPage: 100 * sim.Microsecond, ProgramPage: 2200 * sim.Microsecond,
			EraseBlock: 11 * sim.Millisecond, XferPage: 3300 * sim.Nanosecond}
	case PLC:
		return Latencies{ReadPage: 150 * sim.Microsecond, ProgramPage: 3500 * sim.Microsecond,
			EraseBlock: 18 * sim.Millisecond, XferPage: 3300 * sim.Nanosecond}
	default: // TLC
		return Latencies{ReadPage: 60 * sim.Microsecond, ProgramPage: 700 * sim.Microsecond,
			EraseBlock: 4200 * sim.Microsecond, XferPage: 3300 * sim.Nanosecond}
	}
}

// Geometry describes the physical organization of a device.
//
// Block indices are interleaved across LUNs: consecutive block numbers live
// on consecutive LUNs, so a device layer that fills blocks round-robin gets
// die parallelism for free.
type Geometry struct {
	Channels      int // independent buses
	DiesPerChan   int // dies per channel
	PlanesPerDie  int // planes per die; each plane is an execution unit (LUN)
	BlocksPerLUN  int // erasure blocks per plane
	PagesPerBlock int // pages per erasure block
	PageSize      int // bytes per page (typically 4096, §2.1)
}

// DefaultGeometry is the repository's calibration geometry: 8 channels x 4
// dies x 1 plane, 4 KiB pages, 4096 pages/block = 16 MiB erasure blocks
// (matching the paper's §2.2 DRAM estimate), 8 GiB per LUN slice scaled by
// BlocksPerLUN.
func DefaultGeometry(blocksPerLUN int) Geometry {
	return Geometry{
		Channels:      8,
		DiesPerChan:   4,
		PlanesPerDie:  1,
		BlocksPerLUN:  blocksPerLUN,
		PagesPerBlock: 4096,
		PageSize:      4096,
	}
}

// maxPages is the largest device Validate accepts, in pages: the device
// layers keep their mapping tables as 4-byte page numbers (§2.2's 4 B per
// 4 KiB page), and a size that user input can reach needs a ceiling that is
// an error rather than an allocation failure.
const maxPages = math.MaxInt32

// Validate reports an error if any field is non-positive or the device
// would hold more than 2^31-1 pages (8 TiB of 4 KiB pages). The product is
// checked factor by factor, so a geometry whose block or page count
// overflows int is an error too, never a wrapped-around size.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChan <= 0 || g.PlanesPerDie <= 0 ||
		g.BlocksPerLUN <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	pages := int64(1)
	for _, n := range [...]int{g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerLUN, g.PagesPerBlock} {
		if int64(n) > maxPages/pages {
			return fmt.Errorf("flash: geometry %+v is too large (valid: 1 to %d pages in all)", g, maxPages)
		}
		pages *= int64(n)
	}
	return nil
}

// LUNs reports the number of independent execution units.
func (g Geometry) LUNs() int { return g.Channels * g.DiesPerChan * g.PlanesPerDie }

// TotalBlocks reports the number of erasure blocks on the device.
func (g Geometry) TotalBlocks() int { return g.LUNs() * g.BlocksPerLUN }

// TotalPages reports the number of pages on the device.
func (g Geometry) TotalPages() int64 {
	return int64(g.TotalBlocks()) * int64(g.PagesPerBlock)
}

// BlockBytes reports the size of one erasure block in bytes.
func (g Geometry) BlockBytes() int64 { return int64(g.PagesPerBlock) * int64(g.PageSize) }

// CapacityBytes reports the raw flash capacity in bytes.
func (g Geometry) CapacityBytes() int64 { return int64(g.TotalBlocks()) * g.BlockBytes() }

// LUNOfBlock maps a block index to its LUN.
func (g Geometry) LUNOfBlock(block int) int { return block % g.LUNs() }

// ChannelOfLUN maps a LUN index to its channel.
func (g Geometry) ChannelOfLUN(lun int) int {
	return lun / (g.DiesPerChan * g.PlanesPerDie)
}

// ChannelOfBlock maps a block index to its channel.
func (g Geometry) ChannelOfBlock(block int) int {
	return g.ChannelOfLUN(g.LUNOfBlock(block))
}

// Errors returned by Device operations. Device layers above flash are
// expected to treat all of them as programming errors except the media
// failures — ErrWornOut (end-of-endurance cell failure, §2.1),
// ErrUncorrectable (a read that exhausted the retry ladder),
// ErrProgramFailed, and ErrEraseFailed (injected hard failures that grow
// the bad-block set) — which must be handled by retiring the block
// (conventional) or transitioning the zone (ZNS).
var (
	ErrOutOfRange    = errors.New("flash: address out of range")
	ErrNotSequential = errors.New("flash: pages within an erasure block must be programmed sequentially")
	ErrNotErased     = errors.New("flash: block is full; erase before programming")
	ErrUnwritten     = errors.New("flash: read of unwritten page")
	ErrWornOut       = errors.New("flash: block exceeded erase endurance")
	ErrBadBlock      = errors.New("flash: block is marked bad")
	ErrUncorrectable = errors.New("flash: read uncorrectable after retry ladder")
	ErrProgramFailed = errors.New("flash: page program failed; block retired")
	ErrEraseFailed   = errors.New("flash: block erase failed; block retired")
)

// OpCounts tracks physical operations executed by the device.
type OpCounts struct {
	Reads    uint64
	Programs uint64
	Erases   uint64
}

type blockState struct {
	nextPage   int32 // next programmable page; == PagesPerBlock when full
	eraseCount uint32
	// lun and ch are Geometry.LUNOfBlock and ChannelOfBlock, filled once by
	// New so no page op divides.
	lun, ch int32
	bad     bool
	sealed  bool // closed to further programs until erased (torn frontier)
}

// lunState is one LUN's complete mutable timing state: the busy-until
// execution unit, its accumulated utilization, and the attribution occupancy
// (last tenant and service phase, so a LUN-wait can blame what it queued
// behind).
type lunState struct {
	res   sim.Resource
	busy  sim.Time
	owner telemetry.TenantID
	op    telemetry.Phase // previous cell op's service phase; -1 before the first
}

// chanState is one channel bus's mutable timing state, the per-chan
// counterpart of lunState. The bus only ever transfers pages, so no service
// phase is tracked.
type chanState struct {
	res   sim.Resource
	busy  sim.Time
	owner telemetry.TenantID
}

// Device is a timed NAND flash array.
type Device struct {
	Geom Geometry
	Lat  Latencies

	// Endurance is the per-block erase budget; 0 means unlimited. When a
	// block's erase count reaches Endurance, the erase fails with ErrWornOut
	// and the block is marked bad.
	Endurance uint32

	luns   []lunState
	chans  []chanState
	blocks []blockState
	counts OpCounts

	// Fault injection (nil = perfect media) and crash/recovery support.
	// The OOB arrays model the out-of-band area real NAND pages carry
	// (logical address + sequence stamp) and exist only when recovery is
	// armed, as does the per-page program-completion clock CrashAt uses to
	// find the durable prefix, and the latest erase-issue time, the earliest
	// instant CrashAt can truncate to.
	inj       *fault.Injector
	recovery  bool
	oobLPN    []int64
	oobSeq    []uint64
	progDone  []sim.Time
	lastErase sim.Time

	// owners arms the occupancy half of lunState/chanState: SetProbe sets it
	// when attribution attaches, and claimLUN/claimChan stamp the current
	// worker tenant (and, for LUNs, the service phase) so a wait charge can
	// blame the previous occupant — the tenant whose activity the arriving
	// op queued behind.
	owners bool

	// Telemetry handles; both nil (zero-cost no-ops) without SetProbe.
	attr *telemetry.AttrSink
	fl   *telemetry.Flight
}

// New returns a fresh, fully erased device. It panics on invalid geometry;
// geometry is always program-supplied, never user input.
func New(geom Geometry, lat Latencies) *Device {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		Geom:   geom,
		Lat:    lat,
		luns:   make([]lunState, geom.LUNs()),
		chans:  make([]chanState, geom.Channels),
		blocks: make([]blockState, geom.TotalBlocks()),
	}
	for b := range d.blocks {
		lun := geom.LUNOfBlock(b)
		d.blocks[b].lun, d.blocks[b].ch = int32(lun), int32(geom.ChannelOfLUN(lun))
	}
	return d
}

// SetProbe attaches (or, with nil, detaches) telemetry: per-page latency
// attribution with resource blame, and fault and erase records in the
// flight recorder. Attach before driving I/O.
func (d *Device) SetProbe(p *telemetry.Probe) {
	d.attr = p.Attribution()
	d.fl = p.Flight()
	if d.attr != nil && !d.owners {
		d.owners = true
		for i := range d.luns {
			d.luns[i].op = -1
		}
	}
}

// LUNBusy reports the accumulated busy time of a LUN (cell operations).
func (d *Device) LUNBusy(lun int) sim.Time { return d.luns[lun].busy }

// Counts returns a copy of the physical operation counters.
func (d *Device) Counts() OpCounts { return d.counts }

// EraseCount reports how many times a block has been erased.
func (d *Device) EraseCount(block int) uint32 { return d.blocks[block].eraseCount }

// IsBad reports whether a block has been retired.
func (d *Device) IsBad(block int) bool { return d.blocks[block].bad }

// WrittenPages reports how many pages of the block are programmed.
func (d *Device) WrittenPages(block int) int { return int(d.blocks[block].nextPage) }

// SetInjector attaches a fault injector; nil restores perfect media.
func (d *Device) SetInjector(inj *fault.Injector) { d.inj = inj }

// Injector returns the attached fault injector (possibly nil).
func (d *Device) Injector() *fault.Injector { return d.inj }

// refEndurance normalizes wear for the fault model when Endurance is
// unlimited: hard-failure probability still has to grow as blocks age, so an
// uncapped device wears against a representative TLC budget.
const refEndurance = 3000

func (d *Device) wearFrac(b *blockState) float64 {
	end := d.Endurance
	if end == 0 {
		end = refEndurance
	}
	return float64(b.eraseCount) / float64(end)
}

// EnableRecovery arms crash/recovery support: per-page out-of-band stamps
// (StampOOB/OOB) and the program-completion clock CrashAt needs. Costs
// O(total pages) memory, so it is opt-in per campaign rather than always-on.
func (d *Device) EnableRecovery() {
	if d.recovery {
		return
	}
	d.recovery = true
	n := d.Geom.TotalPages()
	d.oobLPN = make([]int64, n)
	for i := range d.oobLPN {
		d.oobLPN[i] = -1
	}
	d.oobSeq = make([]uint64, n)
	d.progDone = make([]sim.Time, n)
}

// RecoveryEnabled reports whether EnableRecovery was called.
func (d *Device) RecoveryEnabled() bool { return d.recovery }

func (d *Device) pageIndex(block, page int) int64 {
	return int64(block)*int64(d.Geom.PagesPerBlock) + int64(page)
}

// StampOOB records a page's out-of-band metadata — the logical page it holds
// and a monotone write sequence number — the way a real FTL journals its
// mapping into each page's spare area. No-op unless recovery is armed.
func (d *Device) StampOOB(block, page int, lpn int64, seq uint64) {
	if !d.recovery {
		return
	}
	i := d.pageIndex(block, page)
	d.oobLPN[i] = lpn
	d.oobSeq[i] = seq
}

// OOB returns a page's out-of-band stamp; (-1, 0) when never stamped or
// recovery is not armed. Reading OOB carries no timing — recovery scans pay
// for it with the ReadPage that fetches the page.
func (d *Device) OOB(block, page int) (lpn int64, seq uint64) {
	if !d.recovery {
		return -1, 0
	}
	i := d.pageIndex(block, page)
	return d.oobLPN[i], d.oobSeq[i]
}

// SealBlock closes a partially-written block to further programs until it is
// erased. Recovery seals torn write frontiers: the cells past the durable
// prefix are in an indeterminate state, so the safe policy is to treat the
// block as full, let GC drain it, and reclaim it with an erase.
func (d *Device) SealBlock(block int) { d.blocks[block].sealed = true }

// IsSealed reports whether a block was sealed (reads stay legal).
func (d *Device) IsSealed(block int) bool { return d.blocks[block].sealed }

// claimLUN stamps the current worker tenant and the new cell operation's
// service phase as the LUN's occupancy, and returns the previous occupant
// and phase — the culprit an arriving op's LUN-wait is blamed on and the
// cost it queued behind. Ownership updates even while attribution is
// suspended (reclamation fan-out is exactly the occupancy later victims
// wait behind). (SelfTenant, -1) when attribution is off.
func (d *Device) claimLUN(lun int, op telemetry.Phase) (telemetry.TenantID, telemetry.Phase) {
	if !d.owners {
		return telemetry.SelfTenant, -1
	}
	l := &d.luns[lun]
	prev, prevOp := l.owner, l.op
	l.owner = d.attr.Worker()
	l.op = op
	return prev, prevOp
}

// claimChan is claimLUN for a channel bus.
func (d *Device) claimChan(ch int) telemetry.TenantID {
	if !d.owners {
		return telemetry.SelfTenant
	}
	c := &d.chans[ch]
	prev := c.owner
	c.owner = d.attr.Worker()
	return prev
}

func (d *Device) checkAddr(block, page int) error {
	if block < 0 || block >= len(d.blocks) || page < 0 || page >= d.Geom.PagesPerBlock {
		return ErrOutOfRange
	}
	return nil
}

// ReadPage reads one page. The LUN senses the cells — possibly several
// times, if the fault injector makes senses fail transiently and the retry
// ladder re-reads with tuned thresholds — then the channel bus transfers the
// page out. Reading a page that was never programmed since the last erase
// returns ErrUnwritten; exhausting the retry ladder returns ErrUncorrectable
// with the sense time spent but nothing transferred. Grown-bad blocks refuse
// programs and erases but stay readable: pages programmed before the block
// was retired still hold data the layer above must be able to migrate off.
func (d *Device) ReadPage(at sim.Time, block, page int) (sim.Time, error) {
	if err := d.checkAddr(block, page); err != nil {
		return at, err
	}
	b := &d.blocks[block]
	if int32(page) >= b.nextPage {
		return at, ErrUnwritten
	}
	// Perfect media (a nil injector) draws nothing; skip wearFrac's division.
	var retries int
	var uncorrectable bool
	if d.inj != nil {
		retries, uncorrectable = d.inj.ReadFaults(d.wearFrac(b))
	}
	if retries > 0 {
		// Mark the active record so the exemplar reservoir always keeps
		// IOs that needed a media retry, however fast they completed.
		d.attr.FlagIO(telemetry.FlagFaultRetry)
	}
	sense := sim.Time(1+retries) * d.Lat.ReadPage
	lun, ch := int(b.lun), int(b.ch)
	prevLUN, lunBind := d.claimLUN(lun, telemetry.PhaseNANDRead)
	senseStart, senseEnd := d.luns[lun].res.Acquire(at, sense)
	d.luns[lun].busy += sense
	d.counts.Reads++
	if uncorrectable {
		// Error paths charge no attribution; the caller abandons or
		// re-places the op and accounts for the gap itself.
		d.fl.Record(at, telemetry.FlightFault, int32(block), "read_uncorrectable", int64(page))
		return senseEnd, ErrUncorrectable
	}
	prevCh := d.claimChan(ch)
	xferStart, done := d.chans[ch].res.Acquire(senseEnd, d.Lat.XferPage)
	d.chans[ch].busy += d.Lat.XferPage
	if d.attr != nil {
		// Attribution: [at..senseStart) LUN queue, sense (incl. retries),
		// [senseEnd..xferStart) bus queue, transfer — contiguous intervals
		// covering at..done exactly. Waits blame the resource's previous
		// occupant.
		d.attr.ChargeSteps(
			telemetry.Step{Wait: telemetry.PhaseLUNWait, Queued: senseStart - at, Culprit: prevLUN, Bind: lunBind, Svc: telemetry.PhaseNANDRead, Busy: sense},
			telemetry.Step{Wait: telemetry.PhaseChanWait, Queued: xferStart - senseEnd, Culprit: prevCh, Bind: telemetry.PhaseXfer, Svc: telemetry.PhaseXfer, Busy: d.Lat.XferPage})
	}
	return done, nil
}

// ProgramPage programs one page. Pages within a block must be programmed in
// order (§2.1); out-of-order programming returns ErrNotSequential, and
// programming a full block returns ErrNotErased. The channel transfers the
// page in, then the LUN programs the cells.
func (d *Device) ProgramPage(at sim.Time, block, page int) (sim.Time, error) {
	if err := d.checkAddr(block, page); err != nil {
		return at, err
	}
	b := &d.blocks[block]
	if b.bad {
		return at, ErrBadBlock
	}
	if b.sealed {
		return at, ErrNotErased
	}
	if b.nextPage >= int32(d.Geom.PagesPerBlock) {
		return at, ErrNotErased
	}
	if int32(page) != b.nextPage {
		return at, ErrNotSequential
	}
	lun, ch := int(b.lun), int(b.ch)
	prevCh := d.claimChan(ch)
	xferStart, xferEnd := d.chans[ch].res.Acquire(at, d.Lat.XferPage)
	prevLUN, lunBind := d.claimLUN(lun, telemetry.PhaseNANDProgram)
	progStart, done := d.luns[lun].res.Acquire(xferEnd, d.Lat.ProgramPage)
	d.chans[ch].busy += d.Lat.XferPage
	d.luns[lun].busy += d.Lat.ProgramPage
	d.counts.Programs++
	if d.inj != nil && d.inj.ProgramFails(d.wearFrac(b)) {
		// The program consumed bus and cell time, then reported failure.
		// The block is retired with its already-programmed pages intact
		// and readable; the failed page's cells are untrusted, so nextPage
		// does not advance and the block refuses further programs.
		b.bad = true
		d.fl.Record(at, telemetry.FlightFault, int32(block), "program_failed", int64(page))
		return done, ErrProgramFailed
	}
	b.nextPage++
	if d.recovery {
		d.progDone[d.pageIndex(block, page)] = done
	}
	if d.attr != nil {
		d.attr.ChargeSteps(
			telemetry.Step{Wait: telemetry.PhaseChanWait, Queued: xferStart - at, Culprit: prevCh, Bind: telemetry.PhaseXfer, Svc: telemetry.PhaseXfer, Busy: d.Lat.XferPage},
			telemetry.Step{Wait: telemetry.PhaseLUNWait, Queued: progStart - xferEnd, Culprit: prevLUN, Bind: lunBind, Svc: telemetry.PhaseNANDProgram, Busy: d.Lat.ProgramPage})
	}
	return done, nil
}

// EraseBlock erases one block, making all its pages programmable again.
// If the block's erase count reaches the endurance budget the block is
// retired and ErrWornOut is returned.
func (d *Device) EraseBlock(at sim.Time, block int) (sim.Time, error) {
	if err := d.checkAddr(block, 0); err != nil {
		return at, err
	}
	b := &d.blocks[block]
	if b.bad {
		return at, ErrBadBlock
	}
	if d.Endurance != 0 && b.eraseCount >= d.Endurance {
		b.bad = true
		d.fl.Record(at, telemetry.FlightErase, int32(block), "worn_out", int64(b.eraseCount))
		return at, ErrWornOut
	}
	if d.recovery && at > d.lastErase {
		d.lastErase = at
	}
	lun := int(b.lun)
	prevLUN, lunBind := d.claimLUN(lun, telemetry.PhaseNANDErase)
	eraseStart, done := d.luns[lun].res.Acquire(at, d.Lat.EraseBlock)
	d.luns[lun].busy += d.Lat.EraseBlock
	d.counts.Erases++
	if d.inj != nil && d.inj.EraseFails(d.wearFrac(b)) {
		// The erase ran and failed: the cells are indeterminate, so the
		// block is retired with nothing readable. Callers only erase
		// blocks holding no valid data, so no mapping is lost.
		b.bad = true
		b.nextPage = 0
		b.sealed = false
		d.fl.Record(at, telemetry.FlightFault, int32(block), "erase_failed", int64(b.eraseCount))
		return done, ErrEraseFailed
	}
	b.eraseCount++
	b.nextPage = 0
	b.sealed = false
	d.attr.ChargeWaitBlamed(telemetry.PhaseLUNWait, eraseStart-at, prevLUN, lunBind)
	d.attr.Charge(telemetry.PhaseNANDErase, d.Lat.EraseBlock)
	d.fl.Record(at, telemetry.FlightErase, int32(block), "", int64(b.eraseCount))
	return done, nil
}

// CopyPage performs a controller-internal copy of one page: a read on the
// source LUN followed by a program on the destination LUN, moving data over
// the channel bus but never over the host interface. This is the primitive
// behind conventional-FTL garbage collection and the NVMe simple-copy
// command (§2.3). The destination must be the block's next sequential page.
func (d *Device) CopyPage(at sim.Time, srcBlock, srcPage, dstBlock, dstPage int) (sim.Time, error) {
	readDone, err := d.ReadPage(at, srcBlock, srcPage)
	if err != nil {
		return at, err
	}
	done, err := d.ProgramPage(readDone, dstBlock, dstPage)
	if err != nil {
		return done, err
	}
	if d.recovery {
		// A device-internal copy moves the page's spare area with it, so
		// the destination inherits the source's OOB stamp.
		src := d.pageIndex(srcBlock, srcPage)
		d.StampOOB(dstBlock, dstPage, d.oobLPN[src], d.oobSeq[src])
	}
	return done, nil
}

// CrashStats summarizes a power-loss event: when it took effect, what
// truncating to the durable prefix cost, and which blocks need attention
// before reuse.
type CrashStats struct {
	// At is the instant truncated to: CrashAt's t, or the latest erase
	// issue if that is later.
	At        sim.Time
	LostPages int64 // in-flight programs undone (completion after the cut)
	Torn      []int // blocks truncated to zero written pages; indeterminate cells, re-erase before reuse
}

// CrashAt models power loss at time t. Device state is truncated to what was
// durable then: a programmed page survives iff its program completed at or
// before t — within one block completions are monotone in page order (same
// LUN, sequential issue), so the survivors are a clean prefix — while an
// erase is durable at issue. In-flight LUN and channel reservations are
// abandoned. The volatile layers above (mapping tables, zone states) are the
// stacks' problem; their Recover methods rebuild from what this leaves.
// Requires EnableRecovery (the per-page completion clock).
//
// The model applies an erase when it is issued and cannot take it back, so a
// t that precedes an erase already issued is moved up to that erase's issue
// time: truncating earlier would drop relocation copies whose sources are
// already gone (a caller that crashes "halfway through" a write stalled
// behind foreground GC asks for exactly that). CrashStats.At reports the
// instant used; callers continue from it.
func (d *Device) CrashAt(t sim.Time) CrashStats {
	if !d.recovery {
		panic("flash: CrashAt requires EnableRecovery")
	}
	t = max(t, d.lastErase)
	st := CrashStats{At: t}
	for blk := range d.blocks {
		b := &d.blocks[blk]
		if b.nextPage == 0 {
			continue
		}
		base := int64(blk) * int64(d.Geom.PagesPerBlock)
		durable := int(b.nextPage)
		for durable > 0 && d.progDone[base+int64(durable-1)] > t {
			durable--
		}
		lost := int(b.nextPage) - durable
		if lost == 0 {
			continue
		}
		st.LostPages += int64(lost)
		for p := durable; p < int(b.nextPage); p++ {
			i := base + int64(p)
			d.progDone[i] = 0
			d.oobLPN[i] = -1
			d.oobSeq[i] = 0
		}
		b.nextPage = int32(durable)
		if durable == 0 {
			st.Torn = append(st.Torn, blk)
		}
	}
	for i := range d.luns {
		d.luns[i].res.Interrupt(t)
	}
	for i := range d.chans {
		d.chans[i].res.Interrupt(t)
	}
	d.fl.Record(t, telemetry.FlightCrash, -1, "power_loss", st.LostPages)
	return st
}

// LUNFreeAt reports when the LUN owning block becomes idle; device layers
// use it to schedule maintenance work (host-controlled GC, §4.1) around
// foreground I/O.
func (d *Device) LUNFreeAt(block int) sim.Time {
	return d.luns[d.blocks[block].lun].res.FreeAt()
}

// BusyLUNs reports how many LUNs are still acquired past instant at — the
// die-occupancy component of the exemplar layer's device snapshot.
func (d *Device) BusyLUNs(at sim.Time) int {
	n := 0
	for i := range d.luns {
		if d.luns[i].res.FreeAt() > at {
			n++
		}
	}
	return n
}

// BusyChans reports how many channel buses are still acquired past instant
// at — the bus-occupancy component of the exemplar layer's device snapshot.
func (d *Device) BusyChans(at sim.Time) int {
	n := 0
	for i := range d.chans {
		if d.chans[i].res.FreeAt() > at {
			n++
		}
	}
	return n
}
