package zkv

import (
	"errors"
	"fmt"

	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/zalloc"
	"blockhead/internal/zns"
)

// ZNSBackend places tables on a ZNS device the way ZenFS does: each LSM
// level is a write stream with its own open zone, so tables that die
// together (same level, similar age) share zones and most reclamation is a
// bare zone reset with no data movement. This is the mechanism behind the
// paper's §2.4 claim that RocksDB's write amplification drops to ~1.2x on
// ZNS, and a concrete instance of §4.1's lifetime-aware placement.
type ZNSBackend struct {
	dev     *zns.Device
	slab    *slab
	streams int
	// za places tables: slot s < streams is level stream s's, slot streams
	// the WAL's.
	za     *zalloc.Alloc
	tables map[TableHandle]*znsTable
	next   TableHandle
	walOff int64 // bytes appended to the WAL zone since reset
}

type znsTable struct {
	zalloc.Extent
	size  int
	slots [][]byte // the table's full segments, slots of the backend's slab
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
		dev:     dev,
		slab:    newSlab(dev, segBytes(dev.PageSize())),
		streams: streams,
		za:      zalloc.New(dev, streams+1),
		tables:  make(map[TableHandle]*znsTable),
	}
	b.za.Sealed = b.recycle
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
func (b *ZNSBackend) RelocatedPages() uint64 { return b.za.Moved }

// recycle resets a sealed zone whose tables are all dead, at once: the
// no-copy reclamation that keeps this backend's WA near 1. It runs after a
// Delete and after every roll.
func (b *ZNSBackend) recycle(at sim.Time, z int) {
	if _, sealed := b.za.Index.Key(z); sealed && b.za.Live[z] == 0 {
		_ = b.za.Reset(at, z) // a zone that refuses the reset stays sealed
	}
}

// WriteTable implements Backend: the blob's segments are appended to the
// zone of the level's stream.
func (b *ZNSBackend) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	ps := int64(b.PageSize())
	pages := (int64(len(blob)) + ps - 1) / ps
	if pages > b.dev.ZonePages() {
		return 0, at, fmt.Errorf("zkv: table of %d pages exceeds zone size %d", pages, b.dev.ZonePages())
	}
	b.za.Reclaim(at)
	z, err := b.za.Room(at, min(level, b.streams-1), pages)
	if errors.Is(err, zalloc.ErrNoSpace) {
		err = ErrNoSpace
	}
	if err != nil {
		return 0, at, err
	}
	off := b.dev.WP(z)
	done := at
	slots, err := storeSegments(blob, int(ps), b.slab, func(payload []byte) error {
		_, d, err := b.dev.Append(at, z, payload)
		done = sim.Max(done, d)
		return err
	})
	if err != nil {
		_ = b.dev.DropPayload(b.dev.LBA(z, off), b.dev.WP(z)-off) // the pages appended
		b.slab.put(slots)
		return 0, at, err
	}
	t := &znsTable{Extent: zalloc.Extent{Pages: pages}, size: len(blob), slots: slots}
	b.za.Place(&t.Extent, z, off)
	h := b.next
	b.next++
	b.tables[h] = t
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
		return b.dev.Read(at, b.dev.LBA(t.Zone, t.Off+page))
	})
}

// Delete implements Backend: drop the table's payload (its pages stay in
// the zone until the zone is reset), return its slots to the slab and mark
// it dead; a sealed zone whose tables are all dead is reset immediately.
func (b *ZNSBackend) Delete(at sim.Time, h TableHandle) error {
	t, ok := b.tables[h]
	if !ok {
		return ErrBadHandle
	}
	z := t.Zone
	if err := b.dev.DropPayload(b.dev.LBA(z, t.Off), t.Pages); err != nil {
		return err
	}
	b.slab.put(t.slots)
	b.za.Kill(&t.Extent)
	delete(b.tables, h)
	b.recycle(at, z)
	return nil
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
		z, err := b.za.Room(at, b.streams, 1)
		if errors.Is(err, zalloc.ErrNoSpace) {
			err = ErrNoSpace
		}
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
	z := b.za.Open[b.streams]
	if z < 0 {
		return nil
	}
	b.za.Open[b.streams] = -1
	return b.za.Reset(at, z)
}
