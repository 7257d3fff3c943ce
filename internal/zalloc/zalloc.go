// Package zalloc is the zone allocator zkv's and placement's extent stores
// share, after ZenFS's: an open zone per write stream, finish a zone an extent
// does not fit, reclaim the most dead sealed zone. Ring is every free pool.
package zalloc

import (
	"errors"

	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

// ErrNoSpace reports that no free zone is left to open.
var ErrNoSpace = errors.New("zalloc: no free zone")

// Ring is a free-zone pool: a FIFO over one slot per zone, so it never
// reallocates. A zone is in the ring at most once, which is what bounds it.
type Ring struct {
	buf     []int
	head, n int
}

// NewRing returns an empty ring with room for zones zones.
func NewRing(zones int) Ring { return Ring{buf: make([]int, zones)} }

// Len reports how many zones the ring holds.
func (r *Ring) Len() int { return r.n }

// Push returns zone z to the tail.
func (r *Ring) Push(z int) {
	r.buf[(r.head+r.n)%len(r.buf)] = z
	r.n++
}

// Take pops zones from the head until one can be written, dropping those
// wear took offline or shrank to nothing.
func (r *Ring) Take(dev *zns.Device) (int, bool) {
	for r.n > 0 {
		z := r.buf[r.head]
		r.head, r.n = (r.head+1)%len(r.buf), r.n-1
		if dev.State(z) != zns.Offline && dev.WritableCap(z) > 0 {
			return z, true
		}
	}
	return -1, false
}

// Extent is a store's extent, whole in one zone (Zone -1 once it is dead).
type Extent struct {
	Zone       int
	Off, Pages int64
}

// Alloc places a store's extents: one open zone per write slot, plus a last
// slot that reclamation writes into.
type Alloc struct {
	Free  Ring          // zones ready to open, in take order
	Open  []int         // each slot's open zone, -1 for none
	Live  []int64       // live pages per zone
	Index reclaim.Index // sealed zones, keyed by zone pages minus dead pages
	// Sealed, if set, runs after a roll seals a zone, before the slot refills.
	Sealed func(at sim.Time, zone int)
	Moved  uint64 // pages Reclaim relocated
	Resets uint64 // zones reset into the pool

	dev  *zns.Device
	zext [][]*Extent // the extents written into each zone since its reset
	srcs []int64     // the source pages of one relocated extent
}

// New returns an allocator over every zone of dev with slots write slots.
func New(dev *zns.Device, slots int) *Alloc {
	a := &Alloc{
		Free:  NewRing(dev.NumZones()),
		Open:  make([]int, slots+1),
		Live:  make([]int64, dev.NumZones()),
		Index: reclaim.NewIndex(dev.NumZones(), int(dev.ZonePages())),
		dev:   dev,
		zext:  make([][]*Extent, dev.NumZones()),
	}
	for s := range a.Open {
		a.Open[s] = -1
	}
	for z := 0; z < dev.NumZones(); z++ {
		a.Free.Push(z)
	}
	return a
}

// Room returns slot s's zone once it has room for pages, taking one from the
// pool if need be. Extents never span zones: a zone without room is finished,
// sealed into Index, and the slot rolls to a fresh one.
func (a *Alloc) Room(at sim.Time, s int, pages int64) (int, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if a.Open[s] < 0 {
			z, ok := a.Free.Take(a.dev)
			if !ok {
				return -1, ErrNoSpace
			}
			a.Open[s] = z
		}
		z := a.Open[s]
		if a.dev.WritableCap(z)-a.dev.WP(z) >= pages {
			return z, nil
		}
		if err := a.dev.Finish(at, z); err != nil && !errors.Is(err, zns.ErrBadState) {
			return -1, err
		}
		a.Open[s] = -1
		if st := a.dev.State(z); st != zns.Empty && st != zns.Offline {
			a.Index.Insert(z, int(a.dev.ZonePages()-a.dev.WP(z)+a.Live[z]))
		}
		if a.Sealed != nil {
			a.Sealed(at, z)
		}
	}
	return -1, ErrNoSpace
}

// Place records x, just written at offset off of zone z.
func (a *Alloc) Place(x *Extent, z int, off int64) {
	x.Zone, x.Off = z, off
	a.zext[z] = append(a.zext[z], x)
	a.Live[z] += x.Pages
}

// Kill takes x's pages off its zone's live count: x died, or Reclaim moves it.
func (a *Alloc) Kill(x *Extent) {
	a.Live[x.Zone] -= x.Pages
	a.Index.Add(x.Zone, -int(x.Pages))
	x.Zone = -1
}

// Reset erases zone z, whose extents must all be dead or moved, into the pool.
func (a *Alloc) Reset(at sim.Time, z int) error {
	a.zext[z] = a.zext[z][:0]
	if _, err := a.dev.Reset(at, z); err != nil {
		return err
	}
	a.Index.Remove(z)
	a.Free.Push(z)
	a.Resets++
	return nil
}

// Reclaim frees zones while the pool is low: it simple-copies each live extent
// of the most dead sealed zone into the relocation slot and resets the zone,
// at most four a call so one write never absorbs a whole-device compaction.
func (a *Alloc) Reclaim(at sim.Time) {
	for v := 0; v < 4 && a.Free.Len() <= 2; v++ {
		victim := a.Index.Pick(at)
		if victim < 0 {
			return
		}
		for _, x := range a.zext[victim] {
			if x.Zone != victim {
				continue // dead, or moved out by an earlier pass
			}
			dz, err := a.Room(at, len(a.Open)-1, x.Pages)
			if err != nil {
				return
			}
			a.srcs = a.srcs[:0]
			for p := int64(0); p < x.Pages; p++ {
				a.srcs = append(a.srcs, a.dev.LBA(victim, x.Off+p))
			}
			off := a.dev.WP(dz)
			if _, _, err := a.dev.SimpleCopy(at, a.srcs, dz); err != nil {
				return
			}
			a.Kill(x)
			a.Place(x, dz, off)
			a.Moved += uint64(x.Pages)
		}
		if a.Reset(at, victim) != nil {
			return
		}
	}
}
