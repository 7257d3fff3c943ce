// Package placement studies the paper's central §4.1 question — "How can
// application-level information improve zone management?" — with an
// append-only object store over a ZNS device and pluggable data-placement
// policies.
//
// Objects carry lifetime information (a class hint the application knows,
// and an actual death time). A placement policy maps each object to a write
// stream; each stream owns an open zone. When data that dies together is
// placed together, zones become wholly dead before reclamation needs them
// and can be reset without copying — write amplification approaches 1. When
// lifetimes are mixed in a zone (the single-stream baseline, which is all a
// conventional FTL could do), live data must be copied forward first.
//
// Policies:
//
//   - SingleStream: no information used (the conventional-FTL stand-in).
//   - RoundRobin: spreads load but ignores lifetimes (a placebo control).
//   - ByClass: uses the application's lifetime-class hint, quantized to k
//     streams — "software can often make educated guesses" (§4.1).
//   - Oracle: uses the actual death time — the upper bound on what
//     information can buy, for the "theoretically optimal" question in §4.1.
package placement

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zalloc"
	"blockhead/internal/zns"
)

// Policy maps an object to a write stream.
type Policy interface {
	Name() string
	Streams() int
	StreamOf(now sim.Time, obj workload.Object) int
}

// SingleStream sends everything to one stream.
type SingleStream struct{}

// Name implements Policy.
func (SingleStream) Name() string { return "single-stream" }

// Streams implements Policy.
func (SingleStream) Streams() int { return 1 }

// StreamOf implements Policy.
func (SingleStream) StreamOf(sim.Time, workload.Object) int { return 0 }

// RoundRobin cycles objects across k streams regardless of lifetime.
type RoundRobin struct {
	K    int
	next int
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return fmt.Sprintf("round-robin-%d", r.K) }

// Streams implements Policy.
func (r *RoundRobin) Streams() int { return r.K }

// StreamOf implements Policy.
func (r *RoundRobin) StreamOf(sim.Time, workload.Object) int {
	s := r.next
	r.next = (r.next + 1) % r.K
	return s
}

// ByClass uses the application's lifetime-class hint, quantizing Classes
// application classes onto K streams.
type ByClass struct {
	K       int
	Classes int
}

// Name implements Policy.
func (b ByClass) Name() string { return fmt.Sprintf("by-class-%d", b.K) }

// Streams implements Policy.
func (b ByClass) Streams() int { return b.K }

// StreamOf implements Policy.
func (b ByClass) StreamOf(_ sim.Time, obj workload.Object) int {
	if b.Classes <= b.K {
		return obj.Class % b.K
	}
	return obj.Class * b.K / b.Classes
}

// Oracle buckets objects by their actual remaining lifetime into K
// log-spaced buckets starting at Base (objects living < Base share
// stream 0).
type Oracle struct {
	K    int
	Base sim.Time
}

// Name implements Policy.
func (o Oracle) Name() string { return fmt.Sprintf("oracle-%d", o.K) }

// Streams implements Policy.
func (o Oracle) Streams() int { return o.K }

// StreamOf implements Policy.
func (o Oracle) StreamOf(now sim.Time, obj workload.Object) int {
	ttl := obj.Death - now
	s := 0
	for b := o.Base; ttl > b && s < o.K-1; b *= 2 {
		s++
	}
	return s
}

// Errors returned by the store.
var (
	ErrOutOfSpace = errors.New("placement: no free zones")
	ErrTooLarge   = errors.New("placement: object larger than a zone")
	ErrNotFound   = errors.New("placement: unknown object")
)

type objState struct {
	obj   workload.Object
	ext   zalloc.Extent
	alive bool
}

// expiry heap, ordered by death time.
type expHeap []*objState

func (h expHeap) Len() int            { return len(h) }
func (h expHeap) Less(i, j int) bool  { return h[i].obj.Death < h[j].obj.Death }
func (h expHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x interface{}) { *h = append(*h, x.(*objState)) }
func (h *expHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Store is an append-only object store over a ZNS device.
type Store struct {
	dev    *zns.Device
	policy Policy
	za     *zalloc.Alloc // one slot per stream

	objects map[int64]*objState
	exp     expHeap

	hostPages uint64
}

// NewStore builds a store. The device must allow at least
// policy.Streams()+1 active zones.
func NewStore(dev *zns.Device, policy Policy) (*Store, error) {
	need := policy.Streams() + 1
	if dev.MaxActive() != 0 && dev.MaxActive() < need {
		return nil, fmt.Errorf("placement: device allows %d active zones; policy needs %d",
			dev.MaxActive(), need)
	}
	if dev.NumZones() < need+2 {
		return nil, fmt.Errorf("placement: %d zones too few for %d streams", dev.NumZones(), policy.Streams())
	}
	return &Store{
		dev:     dev,
		policy:  policy,
		za:      zalloc.New(dev, policy.Streams()),
		objects: make(map[int64]*objState),
	}, nil
}

// HostPages reports pages of object data written by callers.
func (s *Store) HostPages() uint64 { return s.hostPages }

// GCResets reports zones recycled by reclamation.
func (s *Store) GCResets() uint64 { return s.za.Resets }

// Live reports whether an object is currently stored.
func (s *Store) Live(id int64) bool {
	o, ok := s.objects[id]
	return ok && o.alive
}

// WriteAmp reports flash pages programmed per host object page.
func (s *Store) WriteAmp() float64 {
	if s.hostPages == 0 {
		return 1
	}
	return float64(s.dev.Counters().FlashProgramPages) / float64(s.hostPages)
}

// Put appends an object to the zone of its policy-assigned stream and
// registers its expiry. Expired objects must be collected via ExpireUpTo.
func (s *Store) Put(at sim.Time, obj workload.Object) (sim.Time, error) {
	if int64(obj.Pages) > s.dev.ZonePages() {
		return at, ErrTooLarge
	}
	s.za.Reclaim(at)
	stream := s.policy.StreamOf(at, obj)
	if stream < 0 || stream >= s.policy.Streams() {
		return at, fmt.Errorf("placement: policy %s returned stream %d of %d",
			s.policy.Name(), stream, s.policy.Streams())
	}
	z, err := s.za.Room(at, stream, int64(obj.Pages))
	if errors.Is(err, zalloc.ErrNoSpace) {
		return at, ErrOutOfSpace
	}
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
	st := &objState{obj: obj, ext: zalloc.Extent{Pages: int64(obj.Pages)}, alive: true}
	s.za.Place(&st.ext, z, off)
	s.objects[obj.ID] = st
	s.hostPages += uint64(obj.Pages)
	heap.Push(&s.exp, st)
	return done, nil
}

// Delete drops an object immediately (before its natural death).
func (s *Store) Delete(id int64) error {
	st, ok := s.objects[id]
	if !ok || !st.alive {
		return ErrNotFound
	}
	s.kill(st)
	return nil
}

func (s *Store) kill(st *objState) {
	if !st.alive {
		return
	}
	st.alive = false
	s.za.Kill(&st.ext)
	delete(s.objects, st.obj.ID)
}

// ExpireUpTo marks every object with Death <= now as dead and returns how
// many expired.
func (s *Store) ExpireUpTo(now sim.Time) int {
	n := 0
	for len(s.exp) > 0 && s.exp[0].obj.Death <= now {
		st := heap.Pop(&s.exp).(*objState)
		if st.alive {
			s.kill(st)
			n++
		}
	}
	return n
}

// ZoneOccupancy returns live-page counts per zone, sorted descending —
// a diagnostic for how well a policy clusters deaths.
func (s *Store) ZoneOccupancy() []int64 {
	out := append([]int64(nil), s.za.Live...)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}
