// Package exemplar captures worst-K tail exemplars: for each measured IO
// that lands in the latency tail (or trips an auditor violation or fault
// retry), it copies the full per-phase timeline, the critical-path split
// with queued-behind identities, and the culprit-tenant blame vector out of
// the AttrSink's completed record, and takes a compact device-state
// snapshot at completion. The aggregate layers say how much tail there is;
// this layer says which IOs sat in it and what exactly they queued behind.
//
// The package inherits the telemetry contract wholesale:
//
//   - The nil *Reservoir is a valid no-op on every method.
//   - No hot-path method allocates: per-tenant heaps and the flagged ring
//     are preallocated, and the admission test runs before any capture
//     work, so the common (fast) IO costs one comparison.
//   - Everything is deterministic: admission is a pure function of the
//     (deterministic) latency stream, so the same seed yields the same
//     exemplar set byte-for-byte.
//
// Every exemplar carries the sink's measured-IO sequence number; together
// with the run's seed and experiment ID it identifies one IO for
// deterministic forensic replay (`znsbench -explain <exp>:<seq>`,
// narrate.go).
package exemplar

import (
	"fmt"
	"sort"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// NumZoneStates is the width of the zone-state census in a DevSnap,
// matching the ZNS zone state machine (internal/zns).
const NumZoneStates = 6

// zoneStateNames is the census display order (the zns ZoneState order).
var zoneStateNames = [NumZoneStates]string{
	"empty", "open", "closed", "full", "read_only", "offline",
}

// DevSnap is a compact device-state snapshot taken at IO completion. The
// experiment wires a SnapFunc per stack (SetSnap); a zero DevSnap
// (Captured false) means no snapshot source was armed.
type DevSnap struct {
	Captured bool

	// Zoned-stack state: the zone census by state (zns order: empty,
	// open, closed, full, read_only, offline), plus the busiest open zone
	// (highest write pointer) and its WP. HotZone is -1 when unknown.
	Zoned     bool
	ZoneCount [NumZoneStates]int32
	HotZone   int32
	HotWP     int64

	// Channel/LUN occupancy: how many of the chip's resources were still
	// busy (acquired past the completion instant).
	BusyLUNs, TotalLUNs   int32
	BusyChans, TotalChans int32

	// Reclaim state: cumulative GC/reclaim passes (device-FTL GC runs or
	// host-FTL zone resets), whether reclamation was in flight at
	// completion, and the free-capacity backlog (free blocks for the
	// device FTL, free zones for the host FTL).
	GCRuns   uint64
	GCActive bool
	Free     int64
}

// String renders the snapshot as one report line.
func (s DevSnap) String() string {
	if !s.Captured {
		return "(not captured)"
	}
	out := ""
	if s.Zoned {
		out += "zones:"
		for i := 0; i < NumZoneStates; i++ {
			if s.ZoneCount[i] != 0 {
				out += fmt.Sprintf(" %s=%d", zoneStateNames[i], s.ZoneCount[i])
			}
		}
		if s.HotZone >= 0 {
			out += fmt.Sprintf(" | wp(z%d)=%d", s.HotZone, s.HotWP)
		}
		out += " | "
	}
	out += fmt.Sprintf("luns busy %d/%d | chans busy %d/%d | gc: %d runs",
		s.BusyLUNs, s.TotalLUNs, s.BusyChans, s.TotalChans, s.GCRuns)
	if s.GCActive {
		out += " (in flight)"
	}
	out += fmt.Sprintf(", free=%d", s.Free)
	return out
}

// SnapFunc fills a device-state snapshot for an IO that completed at done.
// It runs only for admitted exemplars, on the simulation thread.
type SnapFunc func(done sim.Time, s *DevSnap)

// Exemplar is one captured IO: identity, exact phase timeline (sums to
// Total by the attribution invariant), blame vector, critical-path split
// with queued-behind identities, and the device snapshot at completion.
type Exemplar struct {
	Seq    uint64
	Op     telemetry.OpKind
	Tenant telemetry.TenantID
	Start  sim.Time
	Total  sim.Time
	Flags  uint8
	Phases [telemetry.NumPhases]sim.Time
	Blame  [telemetry.MaxTenants]sim.Time
	Path   critpath.PathRec
	PathOK bool
	Snap   DevSnap
}

// FlagNames renders the exemplar's flag bits as stable wire names.
func (e Exemplar) FlagNames() []string {
	var out []string
	if e.Flags&telemetry.FlagFaultRetry != 0 {
		out = append(out, "fault_retry")
	}
	if e.Flags&telemetry.FlagAuditViolation != 0 {
		out = append(out, "audit_violation")
	}
	return out
}

// worse is the admission order: a is kept over b when a's latency is
// higher, ties broken toward the earlier sequence number (first
// occurrence). Deterministic total order, so the retained set is a pure
// function of the IO stream.
func worse(aTotal sim.Time, aSeq uint64, bTotal sim.Time, bSeq uint64) bool {
	if aTotal != bTotal {
		return aTotal > bTotal
	}
	return aSeq < bSeq
}

// Options configures a Reservoir.
type Options struct {
	// K bounds the per-tenant worst-K heap (default DefaultK).
	K int
	// FlagCap bounds the always-keep ring for flagged IOs (default
	// DefaultFlagCap); once full, the oldest flagged exemplar is
	// overwritten, so the ring holds the most recent flagged IOs.
	FlagCap int
}

// DefaultK is the per-tenant worst-K capacity when Options.K is 0.
const DefaultK = 8

// DefaultFlagCap is the flagged-ring capacity when Options.FlagCap is 0.
const DefaultFlagCap = 16

// Reservoir is a telemetry.Fold: a fixed-capacity min-heap of worst-K
// exemplars per tenant, keyed by end-to-end latency, plus an always-keep
// ring for flagged IOs (auditor violations, fault retries). The nil
// *Reservoir is a valid no-op on every method and no hot-path method
// allocates (see the package comment).
type Reservoir struct {
	k        int
	heaps    [telemetry.MaxTenants][]Exemplar
	flagged  []Exemplar
	flagNext int
	flagSeen uint64
	ios      uint64

	// path says a critical-path recorder shares the sink, so exemplars
	// carry their path split; snap fills the device-state snapshot
	// (optional; SetSnap re-arms it per stack) into snapBuf, which the
	// reservoir owns so that no admitted exemplar escapes to the heap.
	path    bool
	snap    SnapFunc
	snapBuf DevSnap
}

// New returns an empty reservoir with preallocated storage.
func New(opts Options) *Reservoir {
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	fc := opts.FlagCap
	if fc <= 0 {
		fc = DefaultFlagCap
	}
	r := &Reservoir{k: k, flagged: make([]Exemplar, 0, fc)}
	for t := 0; t < telemetry.MaxTenants; t++ {
		r.heaps[t] = make([]Exemplar, 0, k)
	}
	return r
}

// Attach creates a reservoir and adds it to sink's folds. Its exemplars
// carry critical paths when a recorder is already attached to the sink.
// Returns nil (a valid no-op) when sink is nil.
func Attach(sink *telemetry.AttrSink, opts Options) *Reservoir {
	if sink == nil {
		return nil
	}
	r := New(opts)
	r.path = critpath.FromSink(sink) != nil
	sink.Folds = append(sink.Folds, r)
	return r
}

// FromSink returns the reservoir attached to sink, or nil if sink is nil
// or carries no reservoir.
func FromSink(sink *telemetry.AttrSink) *Reservoir {
	if sink == nil {
		return nil
	}
	for _, f := range sink.Folds {
		if r, ok := f.(*Reservoir); ok {
			return r
		}
	}
	return nil
}

// SetSnap arms (or replaces) the device-state snapshot source. Experiments
// re-arm it per stack, right before the stack's measured window. Nil-safe.
func (r *Reservoir) SetSnap(fn SnapFunc) {
	if r == nil {
		return
	}
	r.snap = fn
}

// Fold offers one completed IO to the reservoir (telemetry.Fold): the
// admission test runs first, so the common IO pays one comparison and no
// capture work. Admitted IOs copy the phase timeline, blame vector and
// critical path out of the record, and take a device snapshot.
func (r *Reservoir) Fold(rec *telemetry.Record) {
	if r == nil {
		return
	}
	r.ios++
	heap := r.heaps[rec.Tenant]
	admitHeap := len(heap) < cap(heap) || worse(rec.Total, rec.Seq, heap[0].Total, heap[0].Seq)
	admitFlag := rec.Flags != 0
	if !admitHeap && !admitFlag {
		return
	}
	ex := Exemplar{
		Seq:    rec.Seq,
		Op:     rec.Op,
		Tenant: rec.Tenant,
		Start:  rec.Start,
		Total:  rec.Total,
		Flags:  rec.Flags,
		Phases: rec.Phases,
		Blame:  rec.Blame,
	}
	if r.path {
		ex.Path = critpath.PathOf(rec)
		ex.PathOK = true
	}
	if r.snap != nil {
		r.snapBuf = DevSnap{}
		r.snap(rec.Start+rec.Total, &r.snapBuf)
		ex.Snap = r.snapBuf
		ex.Snap.Captured = true
	}
	if admitHeap {
		r.admit(ex)
	}
	if admitFlag {
		r.flagSeen++
		if len(r.flagged) < cap(r.flagged) {
			r.flagged = append(r.flagged, ex)
		} else {
			r.flagged[r.flagNext] = ex
			r.flagNext = (r.flagNext + 1) % cap(r.flagged)
		}
	}
}

// admit pushes ex into its tenant's worst-K min-heap (replacing the least
// worst exemplar when full). Manual sift on the preallocated array — no
// interface boxing, no allocation.
func (r *Reservoir) admit(ex Exemplar) {
	h := r.heaps[ex.Tenant]
	if len(h) < cap(h) {
		h = append(h, ex)
		r.heaps[ex.Tenant] = h
		// sift up
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h[parent].Total, h[parent].Seq, h[i].Total, h[i].Seq) {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		return
	}
	// replace root (the least worst retained exemplar), sift down
	h[0] = ex
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		least := i
		if l < len(h) && worse(h[least].Total, h[least].Seq, h[l].Total, h[l].Seq) {
			least = l
		}
		if rr < len(h) && worse(h[least].Total, h[least].Seq, h[rr].Total, h[rr].Seq) {
			least = rr
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Snapshot is a copyable capture of a reservoir's retained exemplars.
// Tenants[t] is tenant t's worst-K sorted worst-first; Flagged is the
// always-keep ring in sequence order; FlagSeen counts every flagged IO
// observed, including those the ring has since overwritten.
type Snapshot struct {
	IOs      uint64
	K        int
	Tenants  [telemetry.MaxTenants][]Exemplar
	Flagged  []Exemplar
	FlagSeen uint64
}

// Snapshot returns a sorted copy of the reservoir's state since the last
// Drain. It allocates, so it is for publish/report time, not the per-IO
// path.
func (r *Reservoir) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{IOs: r.ios, K: r.k, FlagSeen: r.flagSeen}
	for t := 0; t < telemetry.MaxTenants; t++ {
		if len(r.heaps[t]) == 0 {
			continue
		}
		ex := make([]Exemplar, len(r.heaps[t]))
		copy(ex, r.heaps[t])
		sortWorstFirst(ex)
		s.Tenants[t] = ex
	}
	if len(r.flagged) > 0 {
		s.Flagged = make([]Exemplar, len(r.flagged))
		copy(s.Flagged, r.flagged)
		sort.Slice(s.Flagged, func(i, j int) bool { return s.Flagged[i].Seq < s.Flagged[j].Seq })
	}
	return s
}

// Rebase shifts every retained exemplar's sequence number by delta. The
// experiment harness runs each of an experiment's stacks against its own
// sink, whose measured-IO numbering starts at 1; rebasing by the total
// measured-IO count of the preceding stacks numbers the run's IOs
// consecutively, which is the numbering `-explain <exp>:<seq>` replays on
// one sink. A constant offset preserves the reservoir's worst-K tie-break
// order (older wins), so only the labels change.
func (s *Snapshot) Rebase(delta uint64) {
	if delta == 0 {
		return
	}
	for t := range s.Tenants {
		for i := range s.Tenants[t] {
			s.Tenants[t][i].Seq += delta
		}
	}
	for i := range s.Flagged {
		s.Flagged[i].Seq += delta
	}
}

// Drain returns a snapshot of everything captured since the previous Drain
// and resets the reservoir, so one reservoir shared across stacks yields
// per-stack sections the way AttrSnapshot deltas do. The snapshot source
// (SetSnap) is left armed.
func (r *Reservoir) Drain() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := r.Snapshot()
	r.ios = 0
	r.flagSeen = 0
	r.flagNext = 0
	r.flagged = r.flagged[:0]
	for t := 0; t < telemetry.MaxTenants; t++ {
		r.heaps[t] = r.heaps[t][:0]
	}
	return s
}

// sortWorstFirst orders exemplars by descending latency, ascending seq.
func sortWorstFirst(ex []Exemplar) {
	sort.Slice(ex, func(i, j int) bool {
		return worse(ex[i].Total, ex[i].Seq, ex[j].Total, ex[j].Seq)
	})
}

// TopK merges every tenant's worst-K and returns the overall worst n
// exemplars (all retained exemplars when n <= 0), worst-first.
func (s Snapshot) TopK(n int) []Exemplar {
	var all []Exemplar
	for t := 0; t < telemetry.MaxTenants; t++ {
		all = append(all, s.Tenants[t]...)
	}
	sortWorstFirst(all)
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Captured reports how many exemplars the snapshot retains across tenants
// (the flagged ring not included).
func (s Snapshot) Captured() int {
	n := 0
	for t := 0; t < telemetry.MaxTenants; t++ {
		n += len(s.Tenants[t])
	}
	return n
}

// BenchSummary is the -bench-json exemplar block: the worst latencies and
// capture counts the committed BENCH_exemplars.json pins.
type BenchSummary struct {
	IOs          uint64  `json:"ios"`
	Captured     int     `json:"captured"`
	Flagged      uint64  `json:"flagged"`
	WorstReadUs  float64 `json:"worst_read_us"`
	WorstWriteUs float64 `json:"worst_write_us"`
	SumTopUs     float64 `json:"sum_top_us"`
}

// Bench summarizes the snapshot for -bench-json (nil when the snapshot is
// empty, so entries predating exemplar capture compare as "no baseline").
func (s Snapshot) Bench() *BenchSummary {
	if s.IOs == 0 {
		return nil
	}
	b := &BenchSummary{IOs: s.IOs, Captured: s.Captured(), Flagged: s.FlagSeen}
	for _, e := range s.TopK(0) {
		b.SumTopUs += e.Total.Micros()
		switch e.Op {
		case telemetry.OpRead:
			if us := e.Total.Micros(); us > b.WorstReadUs {
				b.WorstReadUs = us
			}
		case telemetry.OpWrite:
			if us := e.Total.Micros(); us > b.WorstWriteUs {
				b.WorstWriteUs = us
			}
		}
	}
	return b
}
