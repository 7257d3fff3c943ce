package placement

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// TestAllocatorMatchesParentStore drives the store on the shared zone
// allocator and the parent's own zone layer, kept verbatim below as oldStore,
// with the same seeded object streams on twin devices, and compares them
// after every call: returned counts, times and errors, every live object's
// (zone, offset), every zone's state, write pointer, live pages, index key
// and membership, the free pool in take order, and the relocation and reset
// counters. Every policy runs at exponential (spread 0) and predictable
// (spread 0.3) lifetimes, with early deletes mixed in. It fails unless some
// run relocates and some run's pool wraps around.
func TestAllocatorMatchesParentStore(t *testing.T) {
	lifetimes := []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond, 16 * sim.Millisecond}
	policies := []func() Policy{
		func() Policy { return SingleStream{} },
		func() Policy { return &RoundRobin{K: 4} },
		func() Policy { return ByClass{K: 2, Classes: len(lifetimes)} },
		func() Policy { return Oracle{K: len(lifetimes), Base: 2 * sim.Millisecond} },
	}
	var relocated, wraps int
	for _, mk := range policies {
		for _, spread := range []float64{0, 0.3} {
			for _, seed := range []int64{42, 7} {
				name := fmt.Sprintf("%s/spread%.1f/seed%d", mk().Name(), spread, seed)
				s, err := NewStore(testDev(t), mk())
				if err != nil {
					t.Fatal(err)
				}
				o, err := newOldStore(testDev(t), mk())
				if err != nil {
					t.Fatal(err)
				}
				gen := func() *workload.ObjectGen {
					if spread > 0 {
						return workload.NewObjectGenSpread(workload.NewSource(seed), 4, lifetimes, spread)
					}
					return workload.NewObjectGen(workload.NewSource(seed), 4, lifetimes)
				}()
				src := workload.NewSource(seed + 1)
				var ids []int64
				var at sim.Time
				for i := 0; i < 3000; i++ {
					at += 60 * sim.Microsecond
					call := fmt.Sprintf("%s call %d", name, i)
					if n, m := s.ExpireUpTo(at), o.ExpireUpTo(at); n != m {
						t.Fatalf("%s: ExpireUpTo %d, parent %d", call, n, m)
					}
					requireSameStore(t, s, o, call+" (expire)")
					if len(ids) > 0 && src.Intn(8) == 0 {
						id := ids[src.Intn(len(ids))]
						if err, oerr := s.Delete(id), o.Delete(id); !errors.Is(err, oerr) {
							t.Fatalf("%s: Delete(%d) = %v, parent %v", call, id, err, oerr)
						}
						requireSameStore(t, s, o, call+" (delete)")
					}
					obj := gen.Next(at)
					ids = append(ids, obj.ID)
					done, err := s.Put(at, obj)
					odone, oerr := o.Put(at, obj)
					if done != odone || !errors.Is(err, oerr) {
						t.Fatalf("%s: Put = %d, %v; parent %d, %v", call, done, err, odone, oerr)
					}
					requireSameStore(t, s, o, call)
				}
				if s.za.Moved > 0 {
					relocated++
				}
				if takes := s.dev.NumZones() + int(s.za.Resets) - s.za.Free.Len(); takes > 2*s.dev.NumZones() {
					wraps++
				}
			}
		}
	}
	if relocated == 0 || wraps == 0 {
		t.Errorf("configs that relocated: %d, whose pool wrapped: %d; want both > 0", relocated, wraps)
	}
}

// requireSameStore fails unless s and the parent's o, and the devices under
// them, are in the same state.
func requireSameStore(t *testing.T, s *Store, o *oldStore, when string) {
	t.Helper()
	for id, st := range o.objects {
		x := s.objects[id].ext
		if x.Zone != st.zone || x.Off != st.off {
			t.Fatalf("%s: object %d at zone %d offset %d, parent %d %d", when, id, x.Zone, x.Off, st.zone, st.off)
		}
	}
	if len(s.objects) != len(o.objects) {
		t.Fatalf("%s: %d objects, parent %d", when, len(s.objects), len(o.objects))
	}
	for z := 0; z < s.dev.NumZones(); z++ {
		key, member := s.za.Index.Key(z)
		okey, omember := o.victims.Key(z)
		if s.dev.State(z) != o.dev.State(z) || s.dev.WP(z) != o.dev.WP(z) || s.za.Live[z] != o.live[z] ||
			member != omember || (member && key != okey) {
			t.Fatalf("%s: zone %d state %v wp %d live %d indexed %v key %d; parent %v %d %d %v %d", when, z,
				s.dev.State(z), s.dev.WP(z), s.za.Live[z], member, key,
				o.dev.State(z), o.dev.WP(z), o.live[z], omember, okey)
		}
	}
	pool := make([]int, s.za.Free.Len())
	for i := range pool {
		pool[i], _ = s.za.Free.Take(s.dev)
		s.za.Free.Push(pool[i])
	}
	if !slices.Equal(pool, o.freeZones) {
		t.Fatalf("%s: free pool %v, parent %v", when, pool, o.freeZones)
	}
	if s.GCResets() != o.GCResets() || s.za.Moved != o.gcCopies || s.dev.Resets() != o.dev.Resets() {
		t.Fatalf("%s: resets %d, copies %d, device resets %d; parent %d %d %d", when,
			s.GCResets(), s.za.Moved, s.dev.Resets(), o.GCResets(), o.gcCopies, o.dev.Resets())
	}
}

// The parent's store, zone layer and all, verbatim but for the names.

type oldObjState struct {
	obj   workload.Object
	zone  int
	off   int64 // first page offset within the zone
	alive bool
}

type oldSeg struct {
	id    int64
	off   int64
	pages int
}

// expiry heap, ordered by death time.
type oldExpHeap []*oldObjState

func (h oldExpHeap) Len() int            { return len(h) }
func (h oldExpHeap) Less(i, j int) bool  { return h[i].obj.Death < h[j].obj.Death }
func (h oldExpHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oldExpHeap) Push(x interface{}) { *h = append(*h, x.(*oldObjState)) }
func (h *oldExpHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oldStore is an append-only object store over a ZNS device.
type oldStore struct {
	dev    *zns.Device
	policy Policy

	streamZone []int // open zone per stream, -1 = none
	relocZone  int   // destination for GC survivors
	freeZones  []int

	objects map[int64]*oldObjState
	segs    [][]oldSeg // per zone
	live    []int64    // live pages per zone
	exp     oldExpHeap
	// victims holds the sealed zones, keyed by zone pages minus dead pages:
	// the most dead first, ties to the lowest zone number.
	victims reclaim.Index

	hostPages uint64
	gcResets  uint64
	gcCopies  uint64
}

// newOldStore builds a store. The device must allow at least
// policy.Streams()+1 active zones.
func newOldStore(dev *zns.Device, policy Policy) (*oldStore, error) {
	need := policy.Streams() + 1
	if dev.MaxActive() != 0 && dev.MaxActive() < need {
		return nil, fmt.Errorf("placement: device allows %d active zones; policy needs %d",
			dev.MaxActive(), need)
	}
	if dev.NumZones() < need+2 {
		return nil, fmt.Errorf("placement: %d zones too few for %d streams", dev.NumZones(), policy.Streams())
	}
	s := &oldStore{
		dev:        dev,
		policy:     policy,
		streamZone: make([]int, policy.Streams()),
		relocZone:  -1,
		objects:    make(map[int64]*oldObjState),
		segs:       make([][]oldSeg, dev.NumZones()),
		live:       make([]int64, dev.NumZones()),
		victims:    reclaim.NewIndex(dev.NumZones(), int(dev.ZonePages())),
	}
	for i := range s.streamZone {
		s.streamZone[i] = -1
	}
	for z := 0; z < dev.NumZones(); z++ {
		s.freeZones = append(s.freeZones, z)
	}
	return s, nil
}

// HostPages reports pages of object data written by callers.
func (s *oldStore) HostPages() uint64 { return s.hostPages }

// GCResets reports zones recycled by reclamation.
func (s *oldStore) GCResets() uint64 { return s.gcResets }

// Live reports whether an object is currently stored.
func (s *oldStore) Live(id int64) bool {
	o, ok := s.objects[id]
	return ok && o.alive
}

// WriteAmp reports flash pages programmed per host object page.
func (s *oldStore) WriteAmp() float64 {
	if s.hostPages == 0 {
		return 1
	}
	return float64(s.dev.Counters().FlashProgramPages) / float64(s.hostPages)
}

func (s *oldStore) takeFreeZone() (int, bool) {
	for len(s.freeZones) > 0 {
		z := s.freeZones[0]
		s.freeZones = s.freeZones[1:]
		if s.dev.State(z) == zns.Offline || s.dev.WritableCap(z) == 0 {
			continue
		}
		return z, true
	}
	return -1, false
}

// openWithRoom returns a zone bound to *slot with at least pages of room,
// finishing the current one if it cannot fit the object.
func (s *oldStore) openWithRoom(at sim.Time, slot *int, pages int) (int, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if *slot < 0 {
			z, ok := s.takeFreeZone()
			if !ok {
				return -1, ErrOutOfSpace
			}
			*slot = z
		}
		z := *slot
		if s.dev.WritableCap(z)-s.dev.WP(z) >= int64(pages) {
			return z, nil
		}
		// Objects never span zones: finish this one and roll.
		if err := s.dev.Finish(at, z); err != nil && !errors.Is(err, zns.ErrBadState) {
			return -1, err
		}
		*slot = -1
		if st := s.dev.State(z); st != zns.Empty && st != zns.Offline {
			s.victims.Insert(z, int(s.dev.ZonePages()-s.dev.WP(z)+s.live[z]))
		}
	}
	return -1, ErrOutOfSpace
}

// Put appends an object to the zone of its policy-assigned stream and
// registers its expiry. Expired objects must be collected via ExpireUpTo.
func (s *oldStore) Put(at sim.Time, obj workload.Object) (sim.Time, error) {
	if int64(obj.Pages) > s.dev.ZonePages() {
		return at, ErrTooLarge
	}
	s.reclaim(at)
	stream := s.policy.StreamOf(at, obj)
	if stream < 0 || stream >= len(s.streamZone) {
		return at, fmt.Errorf("placement: policy %s returned stream %d of %d",
			s.policy.Name(), stream, len(s.streamZone))
	}
	z, err := s.openWithRoom(at, &s.streamZone[stream], obj.Pages)
	if err != nil {
		return at, err
	}
	off := s.dev.WP(z)
	done := at
	for p := 0; p < obj.Pages; p++ {
		_, d, err := s.dev.Append(at, z, nil)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
	}
	st := &oldObjState{obj: obj, zone: z, off: off, alive: true}
	s.objects[obj.ID] = st
	s.segs[z] = append(s.segs[z], oldSeg{id: obj.ID, off: off, pages: obj.Pages})
	s.live[z] += int64(obj.Pages)
	s.hostPages += uint64(obj.Pages)
	heap.Push(&s.exp, st)
	return done, nil
}

// Delete drops an object immediately (before its natural death).
func (s *oldStore) Delete(id int64) error {
	st, ok := s.objects[id]
	if !ok || !st.alive {
		return ErrNotFound
	}
	s.kill(st)
	return nil
}

func (s *oldStore) kill(st *oldObjState) {
	if !st.alive {
		return
	}
	st.alive = false
	s.live[st.zone] -= int64(st.obj.Pages)
	s.victims.Add(st.zone, -st.obj.Pages)
	delete(s.objects, st.obj.ID)
}

// ExpireUpTo marks every object with Death <= now as dead and returns how
// many expired.
func (s *oldStore) ExpireUpTo(now sim.Time) int {
	n := 0
	for len(s.exp) > 0 && s.exp[0].obj.Death <= now {
		st := heap.Pop(&s.exp).(*oldObjState)
		if st.alive {
			s.kill(st)
			n++
		}
	}
	return n
}

// reclaim recycles the deadest zones while the free pool is low, copying
// surviving objects (via simple copy) to the relocation zone. Work per call
// is bounded so one Put never absorbs a whole-device compaction.
func (s *oldStore) reclaim(at sim.Time) {
	const maxVictims = 4
	for v := 0; v < maxVictims && len(s.freeZones) <= 2; v++ {
		victim := s.victims.Pick(at)
		if victim < 0 {
			return
		}
		if !s.relocate(at, victim) {
			return
		}
	}
}

// relocate copies each live object out of victim whole (objects never
// fragment) and resets the zone.
func (s *oldStore) relocate(at sim.Time, victim int) bool {
	for _, sg := range s.segs[victim] {
		st, ok := s.objects[sg.id]
		if !ok || !st.alive || st.zone != victim {
			continue
		}
		dz, err := s.openWithRoom(at, &s.relocZone, sg.pages)
		if err != nil {
			return false
		}
		srcs := make([]int64, sg.pages)
		for p := range srcs {
			srcs[p] = s.dev.LBA(victim, sg.off+int64(p))
		}
		newOff := s.dev.WP(dz)
		if _, _, err := s.dev.SimpleCopy(at, srcs, dz); err != nil {
			return false
		}
		s.live[victim] -= int64(sg.pages)
		s.victims.Add(victim, -sg.pages)
		s.live[dz] += int64(sg.pages)
		st.zone, st.off = dz, newOff
		s.segs[dz] = append(s.segs[dz], oldSeg{id: sg.id, off: newOff, pages: sg.pages})
		s.gcCopies += uint64(sg.pages)
	}
	s.segs[victim] = nil
	if _, err := s.dev.Reset(at, victim); err != nil {
		return false
	}
	s.victims.Remove(victim)
	s.live[victim] = 0
	if s.dev.State(victim) == zns.Empty {
		s.freeZones = append(s.freeZones, victim)
	}
	s.gcResets++
	return true
}

// ZoneOccupancy returns live-page counts per zone, sorted descending —
// a diagnostic for how well a policy clusters deaths.
func (s *oldStore) ZoneOccupancy() []int64 {
	out := append([]int64(nil), s.live...)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}
