package zkv

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// TestAllocatorMatchesParentBackend drives the zone backend on the shared
// zone allocator and the parent's own zone layer, kept verbatim below as
// oldZNSBackend, with the same seeded WriteTable/Delete/AppendWAL/ResetWAL
// streams on twin devices at 1 and 4 streams, and compares them after every
// call: returned handles, times and errors, every live table's (zone,
// offset), every open slot, every zone's state, write pointer, live pages,
// index key and membership, the free pool in take order, and the relocation
// and reset counters. It fails unless relocation, a reset on Delete of a
// sealed zone's last table, a WAL-zone roll (also with the pool dry) and a
// pool wrap-around all happen.
func TestAllocatorMatchesParentBackend(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 512}
	dev := func() *zns.Device {
		d, err := zns.New(zns.Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 2}) // 32 zones of 32 pages
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var relocated, recycled, walRolls, dryRolls, wraps int
	for _, streams := range []int{1, 4} {
		for _, seed := range []int64{42, 7} {
			name := fmt.Sprintf("streams%d/seed%d", streams, seed)
			b, err := NewZNSBackend(dev(), streams)
			if err != nil {
				t.Fatal(err)
			}
			o, err := newOldZNSBackend(dev(), streams)
			if err != nil {
				t.Fatal(err)
			}
			src := workload.NewSource(seed)
			var live []TableHandle
			var livePages int64
			var at sim.Time
			for i := 0; i < 4000; i++ {
				at += 50 * sim.Microsecond
				call := fmt.Sprintf("%s call %d", name, i)
				var done, odone sim.Time
				var err, oerr error
				switch r := src.Intn(20); {
				case r < 9 && livePages < 600:
					pages := 1 + src.Intn(12)
					blob := make([]byte, pages*512-src.Intn(512))
					level := src.Intn(6)
					var h, oh TableHandle
					h, done, err = b.WriteTable(at, blob, level)
					oh, odone, oerr = o.WriteTable(at, blob, level)
					if h != oh {
						t.Fatalf("%s: WriteTable handle %d, parent %d", call, h, oh)
					}
					if err == nil {
						live = append(live, h)
						livePages += int64(pages)
					}
				case r < 14 && len(live) > 0:
					j := src.Intn(len(live))
					h := live[j]
					livePages -= b.tables[h].Pages
					live = append(live[:j], live[j+1:]...)
					resets := o.dev.Resets()
					err, oerr = b.Delete(at, h), o.Delete(at, h)
					if o.dev.Resets() > resets {
						recycled++
					}
				case r < 19:
					n := 1 + src.Intn(1500)
					wal := o.walZone
					done, err = b.AppendWAL(at, n)
					odone, oerr = o.AppendWAL(at, n)
					if wal >= 0 && o.walZone != wal {
						walRolls++
					}
				default:
					err, oerr = b.ResetWAL(at), o.ResetWAL(at)
				}
				if done != odone || !errors.Is(err, oerr) {
					t.Fatalf("%s: returned %d, %v; parent %d, %v", call, done, err, odone, oerr)
				}
				requireSameBackend(t, b, o, call)
			}
			// With a WAL zone open, fill the device with tables until it
			// refuses one, so the pool runs dry, then keep the WAL rolling:
			// each roll's next zone is the one it just sealed, reset on the
			// roll before the take.
			done, err := b.AppendWAL(at, 1)
			if odone, oerr := o.AppendWAL(at, 1); done != odone || !errors.Is(err, oerr) {
				t.Fatalf("%s: AppendWAL = %d, %v; parent %d, %v", name, done, err, odone, oerr)
			}
			for i := 0; ; i++ {
				call := fmt.Sprintf("%s fill %d", name, i)
				blob := make([]byte, 12*512)
				h, done, err := b.WriteTable(at, blob, i%6)
				oh, odone, oerr := o.WriteTable(at, blob, i%6)
				if h != oh || done != odone || !errors.Is(err, oerr) {
					t.Fatalf("%s: WriteTable = %d, %d, %v; parent %d, %d, %v", call, h, done, err, oh, odone, oerr)
				}
				requireSameBackend(t, b, o, call)
				if err != nil {
					break
				}
			}
			for i := 0; i < 100; i++ {
				call := fmt.Sprintf("%s dry WAL %d", name, i)
				resets, dry := o.dev.Resets(), b.za.Free.Len() == 0
				done, err := b.AppendWAL(at, 1500)
				odone, oerr := o.AppendWAL(at, 1500)
				if done != odone || !errors.Is(err, oerr) {
					t.Fatalf("%s: returned %d, %v; parent %d, %v", call, done, err, odone, oerr)
				}
				requireSameBackend(t, b, o, call)
				if dry && o.dev.Resets() > resets {
					dryRolls++ // the WAL zone rolled back into itself
				}
			}
			if b.RelocatedPages() > 0 {
				relocated++
			}
			if takes := b.dev.NumZones() + int(b.za.Resets) - b.za.Free.Len(); takes > 2*b.dev.NumZones() {
				wraps++
			}
		}
	}
	if relocated == 0 || recycled == 0 || walRolls == 0 || dryRolls == 0 || wraps == 0 {
		t.Errorf("runs that relocated: %d; resets on Delete: %d; WAL-zone rolls: %d, with the pool dry: %d; runs whose pool wrapped: %d; want all > 0",
			relocated, recycled, walRolls, dryRolls, wraps)
	}
}

// requireSameBackend fails unless b and the parent's o, and the devices
// under them, are in the same state.
func requireSameBackend(t *testing.T, b *ZNSBackend, o *oldZNSBackend, when string) {
	t.Helper()
	for h, ot := range o.tables {
		x := b.tables[h]
		if x.Zone != ot.zone || x.Off != ot.off {
			t.Fatalf("%s: table %d at zone %d offset %d, parent %d %d", when, h, x.Zone, x.Off, ot.zone, ot.off)
		}
	}
	if len(b.tables) != len(o.tables) {
		t.Fatalf("%s: %d tables, parent %d", when, len(b.tables), len(o.tables))
	}
	slots := append(append(slices.Clone(o.levelZone), o.walZone), o.relocZone)
	if !slices.Equal(b.za.Open, slots) {
		t.Fatalf("%s: open slots %v, parent %v", when, b.za.Open, slots)
	}
	for z := 0; z < b.dev.NumZones(); z++ {
		key, member := b.za.Index.Key(z)
		okey, omember := o.victims.Key(z)
		if b.dev.State(z) != o.dev.State(z) || b.dev.WP(z) != o.dev.WP(z) || b.za.Live[z] != o.livePages[z] ||
			member != omember || (member && key != okey) {
			t.Fatalf("%s: zone %d state %v wp %d live %d indexed %v key %d; parent %v %d %d %v %d", when, z,
				b.dev.State(z), b.dev.WP(z), b.za.Live[z], member, key,
				o.dev.State(z), o.dev.WP(z), o.livePages[z], omember, okey)
		}
	}
	pool := make([]int, b.za.Free.Len())
	for i := range pool {
		pool[i], _ = b.za.Free.Take(b.dev)
		b.za.Free.Push(pool[i])
	}
	if !slices.Equal(pool, o.freeZones) {
		t.Fatalf("%s: free pool %v, parent %v", when, pool, o.freeZones)
	}
	if b.RelocatedPages() != o.RelocatedPages() || b.dev.Resets() != o.dev.Resets() {
		t.Fatalf("%s: relocated %d, device resets %d; parent %d %d", when,
			b.RelocatedPages(), b.dev.Resets(), o.RelocatedPages(), o.dev.Resets())
	}
}

// The parent's zone backend, zone layer and all, verbatim but for the names.

// oldZNSBackend places tables on a ZNS device the way ZenFS does: each LSM
// level is a write stream with its own open zone, so tables that die
// together (same level, similar age) share zones and most reclamation is a
// bare zone reset with no data movement. This is the mechanism behind the
// paper's §2.4 claim that RocksDB's write amplification drops to ~1.2x on
// ZNS, and a concrete instance of §4.1's lifetime-aware placement.
type oldZNSBackend struct {
	dev *zns.Device

	streams   int
	levelZone []int // open zone per stream
	relocZone int
	walZone   int
	freeZones []int

	tables     map[TableHandle]*oldZnsTable
	zoneTables map[int][]TableHandle
	livePages  []int64
	next       TableHandle
	// victims holds the sealed zones, keyed by zone pages minus dead pages:
	// the most dead first, ties to the lowest zone number.
	victims reclaim.Index

	walOff int64 // bytes appended to the WAL zone since reset

	relocatedPages uint64
}

type oldZnsTable struct {
	zone  int
	off   int64
	pages int64
	size  int
	level int
	dead  bool
}

// newOldZNSBackend wraps a ZNS device with the given number of level streams
// (levels deeper than streams-1 share the last stream). The device must
// allow streams+2 active zones (streams + relocation + WAL).
func newOldZNSBackend(dev *zns.Device, streams int) (*oldZNSBackend, error) {
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
	b := &oldZNSBackend{
		dev:        dev,
		streams:    streams,
		levelZone:  make([]int, streams),
		relocZone:  -1,
		walZone:    -1,
		tables:     make(map[TableHandle]*oldZnsTable),
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
func (b *oldZNSBackend) Name() string { return "zns" }

// PageSize implements Backend.
func (b *oldZNSBackend) PageSize() int { return b.dev.PageSize() }

// Counters implements Backend.
func (b *oldZNSBackend) Counters() *stats.Counters { return b.dev.Counters() }

// Device exposes the underlying ZNS device.
func (b *oldZNSBackend) Device() *zns.Device { return b.dev }

// RelocatedPages reports pages moved by zone reclamation — the (small)
// host-side WA source on this backend.
func (b *oldZNSBackend) RelocatedPages() uint64 { return b.relocatedPages }

func (b *oldZNSBackend) takeFreeZone() (int, bool) {
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
func (b *oldZNSBackend) openWithRoom(at sim.Time, slot *int, pages int64) (int, error) {
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

func (b *oldZNSBackend) isOpenSlot(z int) bool {
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
func (b *oldZNSBackend) maybeRecycle(at sim.Time, z int) {
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
func (b *oldZNSBackend) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
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
	b.tables[h] = &oldZnsTable{zone: z, off: off, pages: pages, size: len(blob), level: level}
	b.zoneTables[z] = append(b.zoneTables[z], h)
	b.livePages[z] += pages
	return h, done, nil
}

// ReadAt implements Backend.
func (b *oldZNSBackend) ReadAt(at sim.Time, h TableHandle, off, n int) (sim.Time, []byte, error) {
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
func (b *oldZNSBackend) Delete(at sim.Time, h TableHandle) error {
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
func (b *oldZNSBackend) reclaim(at sim.Time) {
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

func (b *oldZNSBackend) relocateZone(at sim.Time, victim int) bool {
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
func (b *oldZNSBackend) AppendWAL(at sim.Time, n int) (sim.Time, error) {
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
func (b *oldZNSBackend) ResetWAL(at sim.Time) error {
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
