// Package zns implements a Zoned Namespaces SSD as the paper describes it
// (§2.1, "Zoned Namespaces SSDs"): the address space is partitioned into
// zones that behave like erasure blocks — writable only sequentially at a
// per-zone write pointer, erased wholesale by a zone reset. Zones move
// through six states (empty, open, closed, full, read-only, offline), only a
// limited number may be active at once, and flash cell failures are handled
// by shrinking a zone after reset or taking it offline.
//
// The device-side FTL is deliberately thin: it maps zones to erasure blocks
// (coarse-grained translation, needing ~4 bytes of DRAM per block instead of
// per page, §2.2) and does no garbage collection — reclamation is the
// host's job, which is precisely the paper's point.
//
// Two commands beyond classic zoned writes are modeled because the paper
// leans on them:
//
//   - Zone append (§4.2): the device serializes concurrent appends to one
//     zone, eliminating host-side write-pointer lock contention.
//   - Simple copy (§2.3): controller-managed copy of valid data into a
//     destination zone without consuming PCIe bandwidth.
package zns

import (
	"errors"
	"fmt"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/telemetry"
)

// ZoneState is the state machine from the ZNS specification (§2.1).
type ZoneState int

const (
	Empty  ZoneState = iota
	Open             // implicitly or explicitly opened; consumes open + active resources
	Closed           // writable after reopen; consumes active resources only
	Full
	ReadOnly
	Offline
)

// String implements fmt.Stringer.
func (s ZoneState) String() string {
	switch s {
	case Empty:
		return "empty"
	case Open:
		return "open"
	case Closed:
		return "closed"
	case Full:
		return "full"
	case ReadOnly:
		return "read-only"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("ZoneState(%d)", int(s))
	}
}

// Errors returned by the device.
var (
	ErrTooManyActive = errors.New("zns: active zone limit reached")
	ErrTooManyOpen   = errors.New("zns: open zone limit reached")
	ErrNotWritePtr   = errors.New("zns: write LBA does not match the zone write pointer")
	ErrZoneFull      = errors.New("zns: zone is full")
	ErrBadState      = errors.New("zns: operation invalid in current zone state")
	ErrUnwritten     = errors.New("zns: read beyond the write pointer")
	ErrOutOfRange    = errors.New("zns: address out of range")
	ErrOffline       = errors.New("zns: zone is offline")
	// ErrZoneReadOnly reports that a media failure transitioned the zone to
	// ReadOnly mid-command: data below the write pointer stays readable, but
	// the host must re-place the failed write — and, eventually, the zone's
	// live data — elsewhere (§2.1's cell-failure handling).
	ErrZoneReadOnly = errors.New("zns: zone is read-only")
)

// Config parameterizes the device.
type Config struct {
	Geom flash.Geometry
	Lat  flash.Latencies

	// ZoneBlocks is the number of erasure blocks striped into one zone.
	// Blocks are interleaved across LUNs, so a zone with ZoneBlocks = W has
	// W-way internal write parallelism. Zones are "at least as large as
	// erasure blocks" (§2.1); default 4.
	ZoneBlocks int

	// MaxActive bounds open+closed zones, the scarce per-zone write-buffer
	// resource §2.1 describes (the paper's example device supports 14).
	// 0 = unlimited.
	MaxActive int

	// MaxOpen bounds open zones; 0 = same as MaxActive.
	MaxOpen int

	// StoreData keeps written payloads so reads can return them.
	StoreData bool

	// Endurance is the per-block erase budget; 0 = unlimited. Worn-out
	// blocks shrink their zone at the next reset (§2.1).
	Endurance uint32

	// Recovery arms crash recovery: the chip keeps out-of-band page stamps
	// and per-page durability clocks so Recover can rediscover write
	// pointers after a power loss. Costs O(total pages) of flash-side
	// bookkeeping; leave off for pure performance runs.
	Recovery bool

	// ScaleWPSerial arms the write-pointer early-ack counterfactual: the
	// host observes only WPSerialScale of each write's serialization
	// behind the same block's previous program (0 = serialization-free,
	// as if the device buffered appends; 1 = unchanged). The flash
	// schedule itself is untouched — cells stay busy to their real
	// completion — only the host-visible ack moves earlier, which is the
	// ground truth the critpath what-if engine's "wp_serial removed"
	// prediction is validated against. Deliberately independent of
	// telemetry: the cut is computed from device state alone, so a run
	// produces identical timings with or without a probe attached.
	ScaleWPSerial bool
	WPSerialScale float64
}

type zone struct {
	state  ZoneState
	blocks []int // stripe of erasure blocks; shrinks as blocks wear out
	wp     int64 // pages written, in [0, cap]
	cap    int64 // writable capacity in pages (shrinks with lost blocks)
}

// Device is a ZNS SSD.
type Device struct {
	cfg       Config
	chip      *flash.Device
	zones     []zone
	zonePages int64 // nominal zone size (fixed LBA stride)

	active int
	open   int

	data [][]byte // payload by LBA; nil unless StoreData

	counters stats.Counters
	resets   uint64
	appends  uint64

	// audit, when attached, shadows the zone state machine and validates
	// every transition (audit.go). Nil (no-op) without AttachAuditor.
	audit *Auditor

	// Telemetry handles; both nil (zero-cost no-ops) without SetProbe.
	attr *telemetry.AttrSink
	fl   *telemetry.Flight

	// blockDone records, per flash block, when its last program completed —
	// the reference point for classifying LUN wait as write-pointer
	// serialization (waiting behind this zone's own previous program) versus
	// cross-traffic die contention. Allocated lazily by SetProbe.
	blockDone []sim.Time

	// writtenBy counts, per zone, how many programs each tenant issued since
	// the zone's last reset. A Reset's erase cost is blamed on the dominant
	// writer — whoever filled the zone caused the need to wipe it. Allocated
	// lazily by SetProbe alongside blockDone.
	writtenBy [][telemetry.MaxTenants]int32

	// wpDone is blockDone's telemetry-free twin, allocated by New only when
	// ScaleWPSerial is armed: the early-ack cut must not depend on whether
	// a probe is attached, so it keeps its own per-block completion clock.
	wpDone []sim.Time
}

// numZoneStates sizes the per-state tables (legal transitions, labels,
// the census).
const numZoneStates = int(Offline) + 1

// New builds a device. ZoneBlocks defaults to 4; MaxOpen defaults to
// MaxActive.
func New(cfg Config) (*Device, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.ZoneBlocks == 0 {
		cfg.ZoneBlocks = 4
	}
	if cfg.ZoneBlocks < 1 || cfg.ZoneBlocks > cfg.Geom.TotalBlocks() {
		return nil, fmt.Errorf("zns: ZoneBlocks %d out of range", cfg.ZoneBlocks)
	}
	if cfg.MaxOpen == 0 {
		cfg.MaxOpen = cfg.MaxActive
	}
	if cfg.MaxActive != 0 && cfg.MaxOpen > cfg.MaxActive {
		return nil, fmt.Errorf("zns: MaxOpen %d exceeds MaxActive %d", cfg.MaxOpen, cfg.MaxActive)
	}
	nz := cfg.Geom.TotalBlocks() / cfg.ZoneBlocks
	if nz == 0 {
		return nil, fmt.Errorf("zns: geometry too small for %d-block zones", cfg.ZoneBlocks)
	}
	chip := flash.New(cfg.Geom, cfg.Lat)
	chip.Endurance = cfg.Endurance
	if cfg.Recovery {
		chip.EnableRecovery()
	}

	d := &Device{
		cfg:       cfg,
		chip:      chip,
		zones:     make([]zone, nz),
		zonePages: int64(cfg.ZoneBlocks) * int64(cfg.Geom.PagesPerBlock),
	}
	for z := range d.zones {
		blocks := make([]int, cfg.ZoneBlocks)
		for i := range blocks {
			blocks[i] = z*cfg.ZoneBlocks + i
		}
		d.zones[z] = zone{state: Empty, blocks: blocks, cap: d.zonePages}
	}
	if cfg.StoreData {
		d.data = make([][]byte, int64(len(d.zones))*d.zonePages)
	}
	if cfg.ScaleWPSerial {
		if cfg.WPSerialScale < 0 || cfg.WPSerialScale > 1 {
			return nil, fmt.Errorf("zns: WPSerialScale %v out of [0,1]", cfg.WPSerialScale)
		}
		if cfg.WPSerialScale != 1 {
			d.wpDone = make([]sim.Time, cfg.Geom.TotalBlocks())
		}
	}
	return d, nil
}

// SetProbe attaches telemetry to the device and its flash chip: per-page
// attribution that splits write-pointer serialization from die contention,
// and zone transitions, resets and write-pointer conflicts in the flight
// recorder. Attach before driving I/O.
func (d *Device) SetProbe(p *telemetry.Probe) {
	d.chip.SetProbe(p)
	d.attr = p.Attribution()
	if d.attr != nil && d.blockDone == nil {
		d.blockDone = make([]sim.Time, d.cfg.Geom.TotalBlocks())
		d.writtenBy = make([][telemetry.MaxTenants]int32, len(d.zones))
	}
	d.fl = p.Flight()
}

// transition moves a zone to a new state, recording the telemetry event.
// All zone state changes must route through here so the flight recorder and
// the state-machine auditor stay complete.
func (d *Device) transition(at sim.Time, z int, to ZoneState) {
	zn := &d.zones[z]
	from := zn.state
	if from == to {
		return
	}
	zn.state = to
	d.audit.observe(at, z, from, to)
	d.fl.Record(at, telemetry.FlightTransition, int32(z), transPair[from][to], zn.wp)
}

// NumZones reports the number of zones.
func (d *Device) NumZones() int { return len(d.zones) }

// ZonePages reports the nominal zone size in pages (the LBA stride between
// zone starts). Individual zones may have a smaller writable capacity after
// cell failures; see WritableCap.
func (d *Device) ZonePages() int64 { return d.zonePages }

// PageSize reports the page size in bytes.
func (d *Device) PageSize() int { return d.cfg.Geom.PageSize }

// MaxActive reports the active-zone limit (0 = unlimited).
func (d *Device) MaxActive() int { return d.cfg.MaxActive }

// ActiveZones reports the current number of open+closed zones.
func (d *Device) ActiveZones() int { return d.active }

// OpenZones reports the current number of open zones.
func (d *Device) OpenZones() int { return d.open }

// State reports a zone's state.
func (d *Device) State(z int) ZoneState { return d.zones[z].state }

// WP reports a zone's write pointer as a zone-relative page offset.
func (d *Device) WP(z int) int64 { return d.zones[z].wp }

// WritableCap reports a zone's current writable capacity in pages.
func (d *Device) WritableCap(z int) int64 { return d.zones[z].cap }

// Counters returns the accounting counters.
func (d *Device) Counters() *stats.Counters { return &d.counters }

// Resets reports how many zone resets have completed.
func (d *Device) Resets() uint64 { return d.resets }

// Appends reports how many zone-append commands have completed.
func (d *Device) Appends() uint64 { return d.appends }

// Flash exposes the underlying chip for wear inspection.
func (d *Device) Flash() *flash.Device { return d.chip }

// SetInjector attaches a fault injector to the underlying chip. Attach
// before driving I/O; nil detaches.
func (d *Device) SetInjector(inj *fault.Injector) { d.chip.SetInjector(inj) }

// StampOOB records host metadata (a logical page number and a write
// sequence number) into the out-of-band area of the physical page backing
// lba. The host FTL stamps every append so its mapping table can be rebuilt
// after a crash. Requires Config.Recovery; the page must be written.
func (d *Device) StampOOB(lba int64, lpn int64, seq uint64) {
	z, offset := d.ZoneOf(lba)
	block, page := d.addr(z, offset)
	d.chip.StampOOB(block, page, lpn, seq)
}

// OOB peeks at the out-of-band stamp of the page backing lba without a
// timed read — for callers that already hold the page's data (relocation
// re-stamping, newest-wins comparisons during recovery).
func (d *Device) OOB(lba int64) (lpn int64, seq uint64) {
	z, offset := d.ZoneOf(lba)
	block, page := d.addr(z, offset)
	return d.chip.OOB(block, page)
}

// ReadMeta reads the page at lba and returns its out-of-band stamp along
// with the timed read. Recovery scans and the integrity oracle use it; the
// stamp is (-1, 0) for pages never stamped. Requires Config.Recovery.
func (d *Device) ReadMeta(at sim.Time, lba int64) (done sim.Time, lpn int64, seq uint64, err error) {
	done, _, err = d.Read(at, lba)
	if err != nil {
		return done, -1, 0, err
	}
	z, offset := d.ZoneOf(lba)
	block, page := d.addr(z, offset)
	lpn, seq = d.chip.OOB(block, page)
	return done, lpn, seq, nil
}

// LBA composes a global LBA from zone and zone-relative offset.
func (d *Device) LBA(z int, offset int64) int64 { return int64(z)*d.zonePages + offset }

// ZoneOf decomposes a global LBA.
func (d *Device) ZoneOf(lba int64) (z int, offset int64) {
	return int(lba / d.zonePages), lba % d.zonePages
}

// DRAMFootprintBytes reports the on-board DRAM of the thin zone FTL:
// 4 bytes per erasure block for the zone-to-block map (§2.2's estimate)
// plus 16 bytes of state per zone.
func (d *Device) DRAMFootprintBytes() int64 {
	return 4*int64(d.cfg.Geom.TotalBlocks()) + 16*int64(len(d.zones))
}

// addr maps a zone-relative page offset to flash. Offsets stripe round-robin
// across the zone's blocks, so sequential zone writes exploit the stripe's
// LUN parallelism while each block is still programmed sequentially.
func (d *Device) addr(z int, offset int64) (block, page int) {
	zn := &d.zones[z]
	w := int64(len(zn.blocks))
	return zn.blocks[offset%w], int(offset / w)
}

// checkZone validates a zone index.
func (d *Device) checkZone(z int) error {
	if z < 0 || z >= len(d.zones) {
		return ErrOutOfRange
	}
	return nil
}

// activate transitions a zone toward Open, enforcing the open/active limits.
func (d *Device) activate(at sim.Time, z int) error {
	zn := &d.zones[z]
	switch zn.state {
	case Open:
		return nil
	case Closed:
		if d.cfg.MaxOpen != 0 && d.open >= d.cfg.MaxOpen {
			return ErrTooManyOpen
		}
		d.open++
		d.transition(at, z, Open)
		return nil
	case Empty:
		if d.cfg.MaxActive != 0 && d.active >= d.cfg.MaxActive {
			return ErrTooManyActive
		}
		if d.cfg.MaxOpen != 0 && d.open >= d.cfg.MaxOpen {
			return ErrTooManyOpen
		}
		d.active++
		d.open++
		d.transition(at, z, Open)
		return nil
	case Offline:
		return ErrOffline
	default:
		return ErrBadState
	}
}

// deactivate releases resources when a zone leaves Open/Closed.
func (d *Device) release(zn *zone) {
	switch zn.state {
	case Open:
		d.open--
		d.active--
	case Closed:
		d.active--
	case Empty, Full, ReadOnly, Offline:
		// Not active: nothing to release.
	}
}

// Open explicitly opens a zone.
func (d *Device) Open(at sim.Time, z int) error {
	if err := d.checkZone(z); err != nil {
		return err
	}
	return d.activate(at, z)
}

// Close transitions an open zone to Closed, releasing its open-zone slot
// but keeping its active (write-buffer) resources.
func (d *Device) Close(at sim.Time, z int) error {
	if err := d.checkZone(z); err != nil {
		return err
	}
	zn := &d.zones[z]
	if zn.state != Open {
		return ErrBadState
	}
	d.transition(at, z, Closed)
	d.open--
	return nil
}

// Finish moves the write pointer to the end of the zone and marks it Full,
// releasing all its active resources. No flash work is modeled (real
// devices may pad the remainder; we track only the state change).
func (d *Device) Finish(at sim.Time, z int) error {
	if err := d.checkZone(z); err != nil {
		return err
	}
	zn := &d.zones[z]
	switch zn.state {
	case Open, Closed, Empty:
		if zn.state == Empty {
			// Finishing an empty zone is legal per spec; it becomes Full
			// without ever consuming active resources.
			d.transition(at, z, Full)
			zn.wp = zn.cap
			return nil
		}
		d.release(zn)
		d.transition(at, z, Full)
		zn.wp = zn.cap
		return nil
	default:
		return ErrBadState
	}
}

// Reset erases the zone's blocks and returns it to Empty. Blocks that
// exceed their erase endurance are dropped from the stripe, shrinking the
// zone's writable capacity (§2.1); if no blocks survive, the zone goes
// Offline. Erases on distinct LUNs proceed in parallel.
func (d *Device) Reset(at sim.Time, z int) (sim.Time, error) {
	if err := d.checkZone(z); err != nil {
		return at, err
	}
	zn := &d.zones[z]
	switch zn.state {
	case Offline:
		return at, ErrOffline
	case ReadOnly:
		return at, ErrBadState
	case Empty, Open, Closed, Full:
		// Resettable (§2.1: reset is legal from any non-degraded state).
	}
	d.release(zn)

	// The zone's erase cost is blamed on whoever filled it: the dominant
	// writer since the last reset. Its worker identity also owns the
	// stripe-erase LUN occupancy, so later arrivals' waits blame it too.
	culprit := d.dominantWriter(z)

	// The stripe's erases run in parallel across LUNs: suspend per-erase
	// attribution and charge the reset's wall-clock time as one phase.
	d.attr.PushWorker(culprit)
	d.attr.Suspend()
	done := at
	survivors := zn.blocks[:0]
	for _, b := range zn.blocks {
		if d.chip.WrittenPages(b) == 0 && !d.chip.IsBad(b) {
			survivors = append(survivors, b)
			continue // never programmed since last erase; nothing to do
		}
		eDone, err := d.chip.EraseBlock(at, b)
		if err != nil {
			continue // worn out: drop from the stripe
		}
		d.counters.BlockErases++
		survivors = append(survivors, b)
		if eDone > done {
			done = eDone
		}
	}
	d.attr.Resume()
	d.attr.PopWorker()
	d.attr.ChargeBlamed(telemetry.PhaseZoneReset, done-at, culprit)
	if d.writtenBy != nil {
		d.writtenBy[z] = [telemetry.MaxTenants]int32{}
	}
	zn.blocks = survivors
	if d.data != nil {
		base := d.LBA(z, 0)
		clear(d.data[base : base+zn.wp])
	}
	zn.wp = 0
	zn.cap = int64(len(zn.blocks)) * int64(d.cfg.Geom.PagesPerBlock)
	if len(zn.blocks) == 0 {
		d.transition(at, z, Offline)
		return done, nil
	}
	d.transition(at, z, Empty)
	d.fl.Record(at, telemetry.FlightReset, int32(z), "", int64(len(zn.blocks)))
	d.resets++
	return done, nil
}

// clampOwner maps a worker identity into the blame-table range.
func clampOwner(t telemetry.TenantID) telemetry.TenantID {
	if t < 0 || t >= telemetry.MaxTenants {
		return 0
	}
	return t
}

// dominantWriter returns the tenant with the most programs into zone z
// since its last reset (ties break toward the lower ID), or SelfTenant
// when nothing was recorded — the reset then self-blames.
func (d *Device) dominantWriter(z int) telemetry.TenantID {
	if d.writtenBy == nil {
		return telemetry.SelfTenant
	}
	best, bestN := telemetry.SelfTenant, int32(0)
	for t, n := range d.writtenBy[z] {
		if n > bestN {
			best, bestN = telemetry.TenantID(t), n
		}
	}
	return best
}

// write programs one page at the zone's write pointer.
func (d *Device) write(at sim.Time, z int, data []byte) (lba int64, done sim.Time, err error) {
	zn := &d.zones[z]
	if zn.wp >= zn.cap {
		return 0, at, ErrZoneFull
	}
	if err := d.activate(at, z); err != nil {
		return 0, at, err
	}
	offset := zn.wp
	block, page := d.addr(z, offset)
	lunWait0 := d.attr.Value(telemetry.PhaseLUNWait)
	done, err = d.chip.ProgramPage(at, block, page)
	if err == flash.ErrProgramFailed {
		// A grown-bad block retired one of the zone's stripes mid-write.
		// Per the spec state machine the zone goes ReadOnly: everything
		// below the write pointer stays readable, nothing more is accepted,
		// and the host must re-place both this write and the zone's live
		// data (§2.1's cell-failure handling).
		d.release(zn)
		d.transition(at, z, ReadOnly)
		return 0, done, ErrZoneReadOnly
	}
	if err != nil {
		return 0, at, err
	}
	if d.blockDone != nil {
		// The part of the LUN wait spent behind this block's own previous
		// program is write-pointer serialization (the per-zone sequential
		// write pipeline), not cross-traffic contention: relabel it, capped
		// at what the chip actually charged.
		if serial := d.blockDone[block] - at; serial > 0 {
			if w := d.attr.Value(telemetry.PhaseLUNWait) - lunWait0; serial > w {
				serial = w
			}
			d.attr.Reclassify(telemetry.PhaseLUNWait, telemetry.PhaseWPSerial, serial)
		}
		d.blockDone[block] = done
	}
	if d.writtenBy != nil {
		d.writtenBy[z][clampOwner(d.attr.Worker())]++
	}
	if d.wpDone != nil {
		// Early-ack counterfactual (ScaleWPSerial): the host sees only
		// WPSerialScale of the wait behind this block's previous program.
		// The cut is bounded by the op's total queueing delay (everything
		// except the transfer and the program itself) and computed purely
		// from device state — no telemetry reads — so timing is identical
		// with and without a probe. The flash schedule keeps the real
		// completion; only the returned ack moves.
		realDone := done
		if serial := d.wpDone[block] - at; serial > 0 {
			if wait := realDone - at - d.cfg.Lat.XferPage - d.cfg.Lat.ProgramPage; serial > wait {
				serial = wait
			}
			if cut := serial - sim.Time(float64(serial)*d.cfg.WPSerialScale); cut > 0 {
				// Keep attribution in step with the earlier host-visible
				// completion: remove the same ticks from the record,
				// serialization first, then the waits it was carved from.
				rem := cut
				rem -= d.attr.Refund(telemetry.PhaseWPSerial, rem)
				if rem > 0 {
					rem -= d.attr.Refund(telemetry.PhaseLUNWait, rem)
				}
				if rem > 0 {
					d.attr.Refund(telemetry.PhaseChanWait, rem)
				}
				done = realDone - cut
			}
		}
		d.wpDone[block] = realDone
	}
	zn.wp++
	if zn.wp == zn.cap {
		d.release(zn)
		d.transition(at, z, Full)
	}
	lba = d.LBA(z, offset)
	if d.data != nil && data != nil {
		d.data[lba] = data
	}
	d.counters.HostWritePages++
	d.counters.FlashProgramPages++
	d.counters.PCIeBytes += uint64(d.cfg.Geom.PageSize)
	return lba, done, nil
}

// Write writes one page at lba, which must equal the zone's write pointer —
// the spec rule that forces multi-writer hosts to serialize (§4.2). data
// may be nil for timing-only use.
func (d *Device) Write(at sim.Time, lba int64, data []byte) (sim.Time, error) {
	if lba < 0 || lba >= int64(len(d.zones))*d.zonePages {
		return at, ErrOutOfRange
	}
	z, offset := d.ZoneOf(lba)
	if offset != d.zones[z].wp {
		// The §4.2 contention signal: a host writer lost the race for the
		// write pointer and must retry — exactly the serialization cost zone
		// append eliminates.
		d.fl.Record(at, telemetry.FlightWPConflict, int32(z), "", offset)
		return at, ErrNotWritePtr
	}
	_, done, err := d.write(at, z, data)
	return done, err
}

// Append writes one page at the zone's current write pointer, wherever that
// is, and returns the assigned LBA. The device serializes concurrent
// appends (§4.2's fix for write-pointer lock contention), so callers need
// no coordination.
func (d *Device) Append(at sim.Time, z int, data []byte) (lba int64, done sim.Time, err error) {
	if err := d.checkZone(z); err != nil {
		return 0, at, err
	}
	lba, done, err = d.write(at, z, data)
	if err == nil {
		d.appends++
	}
	return lba, done, err
}

// Read reads one page at lba, which must be below the zone's write pointer.
func (d *Device) Read(at sim.Time, lba int64) (done sim.Time, data []byte, err error) {
	if lba < 0 || lba >= int64(len(d.zones))*d.zonePages {
		return at, nil, ErrOutOfRange
	}
	z, offset := d.ZoneOf(lba)
	zn := &d.zones[z]
	if zn.state == Offline {
		return at, nil, ErrOffline
	}
	if offset >= zn.wp {
		return at, nil, ErrUnwritten
	}
	block, page := d.addr(z, offset)
	done, err = d.chip.ReadPage(at, block, page)
	if err != nil {
		return at, nil, err
	}
	d.counters.HostReadPages++
	d.counters.FlashReadPages++
	d.counters.PCIeBytes += uint64(d.cfg.Geom.PageSize)
	if d.data != nil {
		data = d.data[lba]
	}
	return done, data, nil
}

// DropPayload forgets the stored payloads of n pages starting at lba, host
// bookkeeping for pages no read will reach again (a deleted table in a zone
// not yet reset): reads of them return no payload until the zone is reset
// and rewritten. Nothing else changes — no flash op, counter or telemetry,
// and the write pointer, zone state and virtual time stay as they are.
// Without StoreData it is a no-op.
func (d *Device) DropPayload(lba, n int64) error {
	if lba < 0 || n < 0 || lba+n > int64(len(d.zones))*d.zonePages {
		return ErrOutOfRange
	}
	if d.data != nil {
		clear(d.data[lba : lba+n])
	}
	return nil
}

// SimpleCopy copies the pages at srcLBAs to the write pointer of dstZone
// entirely inside the device (§2.3): flash reads and programs happen, data
// crosses the channel buses, but no bytes cross the host interface. It
// returns the first destination LBA.
func (d *Device) SimpleCopy(at sim.Time, srcLBAs []int64, dstZone int) (firstLBA int64, done sim.Time, err error) {
	if err := d.checkZone(dstZone); err != nil {
		return 0, at, err
	}
	zn := &d.zones[dstZone]
	if zn.cap-zn.wp < int64(len(srcLBAs)) {
		return 0, at, ErrZoneFull
	}
	firstLBA, done, err = d.copyPages(at, srcLBAs, dstZone)
	if err != nil {
		return 0, done, err
	}
	d.attr.Charge(telemetry.PhaseDevCopy, done-at)
	return firstLBA, done, nil
}

// copyPages is SimpleCopy's page loop. Copies are issued concurrently (they
// serialize only through the flash resources), so per-page attribution is
// suspended for the whole loop and SimpleCopy charges the wall-clock time
// once, after the deferred Resume. A failed copy returns done = at, except a
// program failure, which returns when the failed program finished.
func (d *Device) copyPages(at sim.Time, srcLBAs []int64, dstZone int) (firstLBA int64, done sim.Time, err error) {
	d.attr.Suspend()
	defer d.attr.Resume()
	zn := &d.zones[dstZone]
	done = at
	firstLBA = -1
	for _, src := range srcLBAs {
		if src < 0 || src >= int64(len(d.zones))*d.zonePages {
			return 0, at, ErrOutOfRange
		}
		sz, so := d.ZoneOf(src)
		if so >= d.zones[sz].wp {
			return 0, at, ErrUnwritten
		}
		if err := d.activate(at, dstZone); err != nil {
			return 0, at, err
		}
		sb, sp := d.addr(sz, so)
		db, dp := d.addr(dstZone, zn.wp)
		cDone, cErr := d.chip.CopyPage(at, sb, sp, db, dp)
		if cErr == flash.ErrProgramFailed {
			// The destination stripe grew a bad block: the destination zone
			// goes ReadOnly and the caller must restart the copy into a
			// different zone. Pages already copied stay below the write
			// pointer (readable, but unmapped by the host — dead on arrival).
			d.release(zn)
			d.transition(at, dstZone, ReadOnly)
			return 0, cDone, ErrZoneReadOnly
		}
		if cErr != nil {
			return 0, at, cErr
		}
		dst := d.LBA(dstZone, zn.wp)
		if firstLBA < 0 {
			firstLBA = dst
		}
		if d.writtenBy != nil {
			// The copy fills the destination on the current worker's behalf
			// (reclamation pushes the victim's dominant polluter), so the
			// destination zone's eventual reset blames the right tenant.
			d.writtenBy[dstZone][clampOwner(d.attr.Worker())]++
		}
		zn.wp++
		if zn.wp == zn.cap {
			d.release(zn)
			d.transition(at, dstZone, Full)
		}
		if d.data != nil {
			d.data[dst] = d.data[src]
		}
		d.counters.FlashReadPages++
		d.counters.FlashProgramPages++
		d.counters.GCCopyPages++
		if cDone > done {
			done = cDone
		}
	}
	return firstLBA, done, nil
}

// ZoneInfo is one row of a zone report (the blkzone-style dump).
type ZoneInfo struct {
	Zone  int
	State ZoneState
	WP    int64
	Cap   int64
}

// ZoneReport lists the state of every zone.
func (d *Device) ZoneReport() []ZoneInfo {
	out := make([]ZoneInfo, len(d.zones))
	for i := range d.zones {
		out[i] = ZoneInfo{Zone: i, State: d.zones[i].state, WP: d.zones[i].wp, Cap: d.zones[i].cap}
	}
	return out
}
