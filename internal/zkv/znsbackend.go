package zkv

import (
	"errors"
	"fmt"

	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/zns"
)

// ZNSBackend places tables on a ZNS device the way ZenFS does: each LSM
// level is a write stream with its own open zone, so tables that die
// together (same level, similar age) share zones and most reclamation is a
// bare zone reset with no data movement. This is the mechanism behind the
// paper's §2.4 claim that RocksDB's write amplification drops to ~1.2x on
// ZNS, and a concrete instance of §4.1's lifetime-aware placement.
type ZNSBackend struct {
	dev *zns.Device

	streams   int
	levelZone []int // open zone per stream
	relocZone int
	walZone   int
	freeZones []int

	tables     map[TableHandle]*znsTable
	zoneTables map[int][]TableHandle
	livePages  []int64
	next       TableHandle
	// victims holds the sealed zones, keyed by zone pages minus dead pages:
	// the most dead first, ties to the lowest zone number.
	victims reclaim.Index

	walOff int64 // bytes appended to the WAL zone since reset

	relocatedPages uint64
}

type znsTable struct {
	zone  int
	off   int64
	pages int64
	size  int
	level int
	dead  bool
}

// NewZNSBackend wraps a ZNS device with the given number of level streams
// (levels deeper than streams-1 share the last stream). The device must
// allow streams+2 active zones (streams + relocation + WAL).
func NewZNSBackend(dev *zns.Device, streams int) (*ZNSBackend, error) {
	if streams < 1 {
		streams = 1
	}
	need := streams + 2
	if dev.MaxActive() != 0 && dev.MaxActive() < need {
		return nil, fmt.Errorf("zkv: device allows %d active zones; need %d", dev.MaxActive(), need)
	}
	if dev.NumZones() < need+2 {
		return nil, fmt.Errorf("zkv: %d zones too few for %d streams", dev.NumZones(), streams)
	}
	b := &ZNSBackend{
		dev:        dev,
		streams:    streams,
		levelZone:  make([]int, streams),
		relocZone:  -1,
		walZone:    -1,
		tables:     make(map[TableHandle]*znsTable),
		zoneTables: make(map[int][]TableHandle),
		livePages:  make([]int64, dev.NumZones()),
		victims:    reclaim.NewIndex(dev.NumZones(), int(dev.ZonePages())),
	}
	for i := range b.levelZone {
		b.levelZone[i] = -1
	}
	for z := 0; z < dev.NumZones(); z++ {
		b.freeZones = append(b.freeZones, z)
	}
	return b, nil
}

// Name implements Backend.
func (b *ZNSBackend) Name() string { return "zns" }

// PageSize implements Backend.
func (b *ZNSBackend) PageSize() int { return b.dev.PageSize() }

// Counters implements Backend.
func (b *ZNSBackend) Counters() *stats.Counters { return b.dev.Counters() }

// Device exposes the underlying ZNS device.
func (b *ZNSBackend) Device() *zns.Device { return b.dev }

// RelocatedPages reports pages moved by zone reclamation — the (small)
// host-side WA source on this backend.
func (b *ZNSBackend) RelocatedPages() uint64 { return b.relocatedPages }

func (b *ZNSBackend) takeFreeZone() (int, bool) {
	for len(b.freeZones) > 0 {
		z := b.freeZones[0]
		b.freeZones = b.freeZones[1:]
		if b.dev.State(z) == zns.Offline || b.dev.WritableCap(z) == 0 {
			continue
		}
		return z, true
	}
	return -1, false
}

// openWithRoom binds *slot to a zone with room for pages, sealing the
// current zone if it cannot fit.
func (b *ZNSBackend) openWithRoom(at sim.Time, slot *int, pages int64) (int, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if *slot < 0 {
			z, ok := b.takeFreeZone()
			if !ok {
				return -1, ErrNoSpace
			}
			*slot = z
		}
		z := *slot
		if b.dev.WritableCap(z)-b.dev.WP(z) >= pages {
			return z, nil
		}
		if err := b.dev.Finish(at, z); err != nil && !errors.Is(err, zns.ErrBadState) {
			return -1, err
		}
		sealed := z
		*slot = -1
		if st := b.dev.State(sealed); st != zns.Empty && st != zns.Offline {
			b.victims.Insert(sealed, int(b.dev.ZonePages()-b.dev.WP(sealed)+b.livePages[sealed]))
		}
		// A sealed zone whose tables are all dead can be reset right away.
		b.maybeRecycle(at, sealed)
	}
	return -1, ErrNoSpace
}

func (b *ZNSBackend) isOpenSlot(z int) bool {
	if z == b.relocZone || z == b.walZone {
		return true
	}
	for _, lz := range b.levelZone {
		if lz == z {
			return true
		}
	}
	return false
}

// maybeRecycle resets a sealed, fully-dead zone.
func (b *ZNSBackend) maybeRecycle(at sim.Time, z int) {
	if b.isOpenSlot(z) || b.livePages[z] != 0 || b.dev.WP(z) == 0 {
		return
	}
	if b.dev.State(z) == zns.Empty || b.dev.State(z) == zns.Offline {
		return
	}
	if _, err := b.dev.Reset(at, z); err != nil {
		return
	}
	b.victims.Remove(z)
	delete(b.zoneTables, z)
	b.freeZones = append(b.freeZones, z)
}

// WriteTable implements Backend: the blob is appended to the zone of the
// level's stream.
func (b *ZNSBackend) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	ps := int64(b.PageSize())
	pages := (int64(len(blob)) + ps - 1) / ps
	if pages > b.dev.ZonePages() {
		return 0, at, fmt.Errorf("zkv: table of %d pages exceeds zone size %d", pages, b.dev.ZonePages())
	}
	b.reclaim(at)
	stream := level
	if stream >= b.streams {
		stream = b.streams - 1
	}
	z, err := b.openWithRoom(at, &b.levelZone[stream], pages)
	if err != nil {
		return 0, at, err
	}
	off := b.dev.WP(z)
	done := at
	for p := int64(0); p < pages; p++ {
		lo := p * ps
		hi := lo + ps
		if hi > int64(len(blob)) {
			hi = int64(len(blob))
		}
		_, d, err := b.dev.Append(at, z, blob[lo:hi])
		if err != nil {
			return 0, at, err
		}
		done = sim.Max(done, d)
	}
	h := b.next
	b.next++
	b.tables[h] = &znsTable{zone: z, off: off, pages: pages, size: len(blob), level: level}
	b.zoneTables[z] = append(b.zoneTables[z], h)
	b.livePages[z] += pages
	return h, done, nil
}

// ReadAt implements Backend.
func (b *ZNSBackend) ReadAt(at sim.Time, h TableHandle, off, n int) (sim.Time, []byte, error) {
	t, ok := b.tables[h]
	if !ok {
		return at, nil, ErrBadHandle
	}
	if off < 0 || n < 0 || off+n > t.size {
		return at, nil, ErrBadReadSpan
	}
	return readSpan(at, b.PageSize(), off, n, func(page int64) (sim.Time, []byte, error) {
		return b.dev.Read(at, b.dev.LBA(t.zone, t.off+page))
	})
}

// Delete implements Backend: mark the table dead; a sealed zone whose
// tables are all dead is reset immediately — the no-copy reclamation that
// keeps this backend's WA near 1.
func (b *ZNSBackend) Delete(at sim.Time, h TableHandle) error {
	t, ok := b.tables[h]
	if !ok {
		return ErrBadHandle
	}
	t.dead = true
	b.livePages[t.zone] -= t.pages
	b.victims.Add(t.zone, -int(t.pages))
	delete(b.tables, h)
	b.maybeRecycle(at, t.zone)
	return nil
}

// reclaim frees zones when the pool runs low by relocating the live tables
// of the deadest sealed zone (via simple copy) and resetting it. Work per
// call is bounded: at most a few victims, so one WriteTable never absorbs
// an unbounded compaction of the whole device — remaining pressure is
// spread across subsequent writes.
func (b *ZNSBackend) reclaim(at sim.Time) {
	const maxVictims = 4
	for v := 0; v < maxVictims && len(b.freeZones) <= 2; v++ {
		victim := b.victims.Pick(at)
		if victim < 0 {
			return
		}
		if !b.relocateZone(at, victim) {
			return
		}
	}
}

func (b *ZNSBackend) relocateZone(at sim.Time, victim int) bool {
	for _, h := range b.zoneTables[victim] {
		t, ok := b.tables[h]
		if !ok || t.dead || t.zone != victim {
			continue
		}
		dz, err := b.openWithRoom(at, &b.relocZone, t.pages)
		if err != nil {
			return false
		}
		srcs := make([]int64, t.pages)
		for p := range srcs {
			srcs[p] = b.dev.LBA(victim, t.off+int64(p))
		}
		newOff := b.dev.WP(dz)
		if _, _, err := b.dev.SimpleCopy(at, srcs, dz); err != nil {
			return false
		}
		b.livePages[victim] -= t.pages
		b.victims.Add(victim, -int(t.pages))
		b.livePages[dz] += t.pages
		t.zone, t.off = dz, newOff
		b.zoneTables[dz] = append(b.zoneTables[dz], h)
		b.relocatedPages += uint64(t.pages)
	}
	delete(b.zoneTables, victim)
	if _, err := b.dev.Reset(at, victim); err != nil {
		return false
	}
	b.victims.Remove(victim)
	b.livePages[victim] = 0
	b.freeZones = append(b.freeZones, victim)
	return true
}

// AppendWAL implements Backend: commits append to a dedicated WAL zone (no
// in-place tail rewrite exists on zones; each commit appends the pages it
// touches, matching the conventional backend's page count).
func (b *ZNSBackend) AppendWAL(at sim.Time, n int) (sim.Time, error) {
	if n <= 0 {
		return at, nil
	}
	ps := int64(b.PageSize())
	first := b.walOff / ps
	last := (b.walOff + int64(n) - 1) / ps
	pages := last - first + 1
	done := at
	for p := int64(0); p < pages; p++ {
		z, err := b.openWithRoom(at, &b.walZone, 1)
		if err != nil {
			return at, err
		}
		_, d, err := b.dev.Append(at, z, nil)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
	}
	b.walOff += int64(n)
	return done, nil
}

// ResetWAL implements Backend: the WAL zone is reset wholesale.
func (b *ZNSBackend) ResetWAL(at sim.Time) error {
	b.walOff = 0
	if b.walZone < 0 {
		return nil
	}
	z := b.walZone
	b.walZone = -1
	if _, err := b.dev.Reset(at, z); err != nil {
		return err
	}
	b.freeZones = append(b.freeZones, z)
	return nil
}
