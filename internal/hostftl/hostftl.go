// Package hostftl implements a block interface on top of a ZNS device —
// the host-side translation layer the paper says was "straightforward to
// implement" (§2.3, dm-zoned; §2.4's IBM SALSA). It is the piece that moves
// the conventional FTL's responsibilities to the host, where they can be
// scheduled around application I/O (§4.1) and fed with application
// information the on-board FTL never had.
//
// The layer is log-structured: logical pages are appended to per-stream
// open zones, a logical-to-device mapping is kept in host DRAM, and
// reclamation resets zones after relocating their live pages. Three knobs
// correspond directly to the paper's claims:
//
//   - UseSimpleCopy: relocate via the NVMe simple-copy command, consuming
//     no PCIe bandwidth (§2.3), instead of host read+write.
//   - GCIncremental: spread relocation into small chunks interleaved with
//     host I/O instead of stop-the-world victim relocation — the
//     host-scheduled GC of §4.1/§2.4 that crushes tail latency.
//   - Streams: direct writes tagged with different lifetime hints to
//     different open zones, the application-aware placement of §4.1.
package hostftl

import (
	"errors"
	"fmt"
	"math"

	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/telemetry"
	"blockhead/internal/zalloc"
	"blockhead/internal/zns"
)

// GCMode selects how reclamation is scheduled.
type GCMode int

const (
	// GCInline mimics a conventional FTL's behavior: when free zones run
	// low, the triggering write stalls behind a full victim relocation.
	GCInline GCMode = iota
	// GCIncremental starts earlier and relocates a bounded chunk per host
	// write, so no single request waits behind a whole zone's relocation.
	GCIncremental
)

// String implements fmt.Stringer.
func (m GCMode) String() string {
	if m == GCIncremental {
		return "incremental"
	}
	return "inline"
}

// Errors returned by the translation layer.
var (
	ErrOutOfRange = errors.New("hostftl: logical page out of range")
	ErrUnmapped   = errors.New("hostftl: read of unmapped logical page")
	ErrOutOfSpace = errors.New("hostftl: no free zones")
	ErrBadStream  = errors.New("hostftl: stream out of range")
)

const unmapped = reclaim.Unmapped

// Config parameterizes the layer.
type Config struct {
	// OPFraction reserves this fraction of zones as relocation headroom,
	// the host-side analogue of conventional overprovisioning — except the
	// host chooses it per application (§2.2). Default 0.1.
	OPFraction float64

	// Streams is the number of write streams (lifetime classes) with their
	// own open zones. Default 1.
	Streams int

	// ZonesPerStream is how many zones each stream keeps open and stripes
	// writes across — the host's lever for write parallelism when zones
	// are narrow. Default 1.
	ZonesPerStream int

	// UseSimpleCopy relocates with the device's simple-copy command.
	UseSimpleCopy bool

	// GCMode selects inline or incremental reclamation.
	GCMode GCMode

	// GCChunkPages bounds relocation work per host write in incremental
	// mode. Default 8.
	GCChunkPages int
}

// FTL is a host-side block-on-ZNS translation layer.
type FTL struct {
	dev *zns.Device
	cfg Config

	logicalPages int64
	zonePages    int64

	freeZones  zalloc.Ring
	streamZone [][]int // open data zones per stream (ZonesPerStream wide)
	streamRR   []int   // per-stream round-robin cursor
	gcZone     int     // open relocation destination, -1 if none

	// reloc is relocateRange's reusable scratch: the host path's deferred
	// remaps (empty whenever anything else can read the mapping) and the
	// simple-copy path's batch of source LBAs.
	reloc struct {
		moves []move
		batch []int64
	}

	// relocHook stands in for relocateRange; the differential test sets it
	// to the per-page version that replaced, production leaves it nil.
	relocHook func(at sim.Time, victim int, from, to int64) (sim.Time, int, bool)

	// gc is the reclamation engine over zones: the page map (New refuses a
	// device of 2^31 pages or more; DRAMFootprintBytes reports the modelled
	// 8 bytes an entry), the victim index (keyed by zone pages minus dead
	// pages, so the most dead zone comes first, ties to the lowest zone
	// number), the incremental cursor, and the tenant blame state.
	gc reclaim.Engine

	// recovery mirrors the device's crash-recovery arming (zns.Config
	// .Recovery): when set, every host append is stamped with (lpn, seq)
	// out-of-band so Recover can rebuild the mapping, newest seq winning.
	recovery bool
	nextSeq  uint64

	hostWrites  uint64
	hostReads   uint64
	gcResets    uint64
	emergencies uint64
	remaps      uint64
	maintTicks  uint64
	evacuations uint64
	// lastStall is the host-visible stall of the most recent write due to
	// reclamation work.
	lastStall sim.Time

	// Telemetry handles; both nil (zero-cost no-ops) without SetProbe.
	attr *telemetry.AttrSink
	fl   *telemetry.Flight
}

// New wraps a ZNS device. The device must allow at least Streams+1 active
// zones (one relocation destination plus one open zone per stream).
func New(dev *zns.Device, cfg Config) (*FTL, error) {
	if cfg.OPFraction <= 0 {
		cfg.OPFraction = 0.1
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.GCChunkPages <= 0 {
		cfg.GCChunkPages = 8
	}
	if cfg.ZonesPerStream <= 0 {
		cfg.ZonesPerStream = 1
	}
	need := cfg.Streams*cfg.ZonesPerStream + 1
	if dev.MaxActive() != 0 && dev.MaxActive() < need {
		return nil, fmt.Errorf("hostftl: device allows %d active zones; need %d (streams*zones+1)",
			dev.MaxActive(), need)
	}
	nz := dev.NumZones()
	reserve := max(int(cfg.OPFraction*float64(nz)), need+2)
	if nz-reserve < 1 {
		return nil, fmt.Errorf("hostftl: %d zones too few for reserve %d", nz, reserve)
	}
	zp := dev.ZonePages()
	if int64(nz)*zp > math.MaxInt32 {
		return nil, fmt.Errorf("hostftl: device of %d pages exceeds the mapping tables' %d (valid: 1 to %d pages)",
			int64(nz)*zp, math.MaxInt32, math.MaxInt32)
	}
	f := &FTL{
		dev:          dev,
		cfg:          cfg,
		logicalPages: int64(nz-reserve) * zp,
		zonePages:    zp,
		freeZones:    zalloc.NewRing(nz),
		streamZone:   make([][]int, cfg.Streams),
		streamRR:     make([]int, cfg.Streams),
		gcZone:       -1,
		gc:           reclaim.New(nz, int(zp), int64(nz-reserve)*zp),
	}
	if dev.Flash().RecoveryEnabled() {
		f.recovery = true
		f.nextSeq = 1
	}
	f.gc.Copy, f.gc.Erase, f.gc.Barrier = f.relocate, f.reset, f.recovery
	f.gc.Kind = telemetry.FlightReclaim
	if cfg.UseSimpleCopy {
		f.reloc.batch = make([]int64, 0, zp)
	} else {
		f.reloc.moves = make([]move, 0, zp)
	}
	for z := 0; z < nz; z++ {
		f.freeZones.Push(z)
	}
	for i := range f.streamZone {
		f.streamZone[i] = make([]int, cfg.ZonesPerStream)
		for j := range f.streamZone[i] {
			f.streamZone[i][j] = -1
		}
	}
	return f, nil
}

// SetProbe attaches telemetry to the translation layer and, through it, the
// underlying ZNS device and flash chip: write-stall attribution with
// polluter blame, and reclamation records in the flight recorder. Attach
// before driving I/O.
func (f *FTL) SetProbe(p *telemetry.Probe) {
	f.dev.SetProbe(p)
	f.attr = p.Attribution()
	f.fl = p.Flight()
	f.gc.Attach(f.attr, f.fl)
}

// CapacityPages reports the logical capacity in pages.
func (f *FTL) CapacityPages() int64 { return f.logicalPages }

// PageSize reports the page size in bytes.
func (f *FTL) PageSize() int { return f.dev.PageSize() }

// Device exposes the underlying ZNS device (for counters and reports).
func (f *FTL) Device() *zns.Device { return f.dev }

// HostWrites reports logical pages written by callers (the WA denominator).
func (f *FTL) HostWrites() uint64 { return f.hostWrites }

// GCResets reports how many zones reclamation has recycled.
func (f *FTL) GCResets() uint64 { return f.gcResets }

// Emergencies reports how often incremental mode fell back to a blocking
// reclamation pass because the pool ran dry — each one is a tail-latency
// spike, so well-paced maintenance keeps this at zero.
func (f *FTL) Emergencies() uint64 { return f.emergencies }

// WorkStats reports the host-side CPU work the translation layer performed:
// mapping operations (one per host I/O plus one per relocation remap),
// relocation pages orchestrated, and maintenance scheduler invocations.
// These feed the offload cost model (§4.2's host-vs-SoC question).
func (f *FTL) WorkStats() (mapOps, relocPages, maintTicks uint64) {
	return f.hostWrites + f.hostReads + f.remaps, f.remaps, f.maintTicks
}

// LastStall reports the reclamation stall charged to the most recent write.
func (f *FTL) LastStall() sim.Time { return f.lastStall }

// WriteAmp reports end-to-end write amplification: flash pages programmed
// (appends + relocation copies) per logical page written.
func (f *FTL) WriteAmp() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.dev.Counters().FlashProgramPages) / float64(f.hostWrites)
}

// Counters exposes the device counters (PCIe bytes, flash ops).
func (f *FTL) Counters() *stats.Counters { return f.dev.Counters() }

// DRAMFootprintBytes reports host DRAM for the mapping: 8 bytes per logical
// page (host DIMMs are cheap and byte-granular; §2.3 footnote 2 is about
// exactly this trade).
func (f *FTL) DRAMFootprintBytes() int64 {
	return 8*f.logicalPages + 8*int64(len(f.gc.P2L))
}

// appendTo appends one page into the given open zone, rolling to a fresh
// zone when full. Returns the device LBA. zoneSlot points at the stream's
// (or GC's) current-zone variable. A zone that goes ReadOnly under the
// append (a grown-bad stripe block, zns.ErrZoneReadOnly) is evacuated and
// replaced; the retry budget bounds how many media failures one logical
// write will absorb before surfacing the error.
func (f *FTL) appendTo(at sim.Time, zoneSlot *int, data []byte) (int64, sim.Time, error) {
	for attempt := 0; attempt < 4; attempt++ {
		if *zoneSlot < 0 {
			z, ok := f.freeZones.Take(f.dev)
			if !ok {
				return 0, at, ErrOutOfSpace
			}
			*zoneSlot = z
		}
		lba, done, err := f.dev.Append(at, *zoneSlot, data)
		if err == nil {
			return lba, done, nil
		}
		if errors.Is(err, zns.ErrZoneFull) {
			// A relocation's remaps into the full zone land before it
			// becomes a victim candidate, keyed by its live pages.
			f.flushRemaps()
			f.release(zoneSlot)
			continue
		}
		if errors.Is(err, zns.ErrZoneReadOnly) {
			ro := *zoneSlot
			*zoneSlot = -1
			retryFrom := at
			// A relocation in progress has copied pages into ro; evacuation
			// finds them through the mapping, so it must be complete.
			f.flushRemaps()
			at = f.evacuateZone(at, ro)
			// Charged as reclamation stall; no-op when the caller is
			// already inside suspended maintenance work.
			f.attr.Charge(telemetry.PhaseGCStall, at-retryFrom)
			continue
		}
		return 0, at, err
	}
	return 0, at, ErrOutOfSpace
}

// evacuateZone relocates every live page off a zone that transitioned to
// ReadOnly, so the stranded zone holds no mappings the next crash or wear
// event could threaten. The host can do this precisely because it owns the
// mapping (§2.3); a conventional SSD hides the equivalent remapping inside
// its FTL. Pages that cannot be moved (pool exhausted) stay mapped on the
// read-only zone — still readable, just not reclaimable.
func (f *FTL) evacuateZone(at sim.Time, z int) sim.Time {
	f.attr.Suspend()
	defer f.attr.Resume()
	f.evacuations++
	f.fl.Record(at, telemetry.FlightFault, int32(z), "hostftl_evacuate", f.gc.Valid[z])
	done, _, _ := f.relocateRange(at, z, 0, f.dev.WP(z))
	return sim.Max(at, done)
}

// Evacuations reports how many read-only zone evacuations have run.
func (f *FTL) Evacuations() uint64 { return f.evacuations }

// Write writes one logical page on stream 0.
func (f *FTL) Write(at sim.Time, lpn int64, data []byte) (sim.Time, error) {
	return f.WriteStream(at, lpn, 0, data)
}

// WriteStream writes one logical page with a lifetime-stream hint. Streams
// segregate data into different zones so data that dies together is erased
// together (§4.1).
func (f *FTL) WriteStream(at sim.Time, lpn int64, stream int, data []byte) (sim.Time, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return at, ErrOutOfRange
	}
	if stream < 0 || stream >= f.cfg.Streams {
		return at, ErrBadStream
	}
	start := at
	at = f.reclaim(at)

	slot := f.streamRR[stream] % len(f.streamZone[stream])
	f.streamRR[stream]++
	lba, done, err := f.appendTo(at, &f.streamZone[stream][slot], data)
	if err != nil {
		return at, err
	}
	if f.recovery {
		f.dev.StampOOB(lba, lpn, f.nextSeq)
		f.nextSeq++
	}
	f.gc.Bind(at, lpn, int32(lba))
	f.hostWrites++
	f.lastStall = at - start
	// reclaim() suspended per-op attribution; the write is charged the
	// host-visible stall it caused, keeping phases summing to done-start.
	// The stall blames the dominant polluter of the victim that dominated
	// the reclamation round.
	f.attr.ChargeBlamed(telemetry.PhaseGCStall, f.lastStall, f.gc.Culprit)
	return done, nil
}

// Read reads one logical page.
func (f *FTL) Read(at sim.Time, lpn int64) (sim.Time, []byte, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return at, nil, ErrOutOfRange
	}
	lba := f.gc.L2P[lpn]
	if lba == unmapped {
		return at, nil, ErrUnmapped
	}
	done, data, err := f.dev.Read(at, int64(lba))
	if err != nil {
		return at, nil, err
	}
	f.hostReads++
	return done, data, nil
}

// Trim unmaps n logical pages starting at lpn — free for the host, since
// it owns the mapping.
func (f *FTL) Trim(lpn, n int64) error {
	if lpn < 0 || lpn+n > f.logicalPages {
		return ErrOutOfRange
	}
	f.gc.Trim(0, lpn, n)
	return nil
}

// FreeZones reports the number of zones in the free pool.
func (f *FTL) FreeZones() int { return f.freeZones.Len() }

// NextSeq reports the sequence number the next stamped write will carry —
// the integrity oracle resyncs to it after recovery.
func (f *FTL) NextSeq() uint64 { return f.nextSeq }
