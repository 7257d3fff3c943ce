// Package critpath records, for every completed IO, the critical path of
// its end-to-end latency: which attribution phases actually bound
// completion time (on-path ticks) versus device work that ran concurrently
// underneath a composite stall (off-path ticks). It is a fold over the
// AttrSink's per-IO record (telemetry.Record) — the device models need no
// new instrumentation beyond the wait-bind annotation in internal/flash.
//
// The recorder inherits the attribution layer's contract wholesale:
//
//   - Hard invariant: the recorded critical-path ticks of an IO sum
//     *exactly* (zero-tick slack) to its end-to-end latency. The sink
//     checks it once per IO; violations are counted, never hidden.
//   - The nil *Recorder is a valid no-op on every method.
//   - The per-IO path does not allocate: the reservoir is preallocated, so
//     the hot path stays 0 allocs/op whether the recorder is attached or
//     not. The one exception is the side list (below), which Fold grows
//     when it admits a path that does not pack while the list is full:
//     past SampleCap/64 such paths held at once, then past each capacity
//     append has grown it to. The census in DESIGN.md ("Packed critical
//     paths") found none in the product's runs.
//
// The reservoir keeps each sampled path packed as its nonzero cells, 72 B
// against PathRec's 472: a recorded path touches a handful of its 56
// cells, each a tick below 2^32 ns. A path that does not pack is kept
// whole in a side list. Snapshot expands both back into PathRecs, so the
// sample a reader sees is exactly the unpacked one.
//
// On top of the recorded paths, whatif.go replays them under counterfactual
// phase scalings and predicts the resulting latency distribution.
package critpath

import (
	"math/bits"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// PathRec is one IO's recorded critical path. Path holds the on-path ticks
// per phase and sums exactly to Total; WaitBy splits each wait phase's
// ticks by the service phase of the occupant waited behind (the remainder
// up to Path[wait] queued behind an unknown blocker); Comp holds each
// composite phase's composition — the depth-1 off-path charges that were
// hidden under its wall-clock.
type PathRec struct {
	Op     telemetry.OpKind
	Tenant telemetry.TenantID
	Total  sim.Time
	Path   [telemetry.NumPhases]sim.Time
	WaitBy [telemetry.NumWaits][telemetry.NumBinds]sim.Time
	Comp   [telemetry.NumComposites][telemetry.NumPhases]sim.Time
}

// PathOf copies a completed record's critical path.
func PathOf(r *telemetry.Record) PathRec {
	return PathRec{Op: r.Op, Tenant: r.Tenant, Total: r.Total, Path: r.Phases, WaitBy: r.WaitBy, Comp: r.Comp}
}

// OpAgg aggregates recorded paths for one op kind. Path is the exact
// on-path (completion-bounding) tick total per phase; Off is the off-path
// total — device work that ran concurrently under a composite stall and
// did NOT bound completion. Path+Off is the "total ticks" column of the
// report tables; Path alone ranks optimization targets.
type OpAgg struct {
	Count    uint64
	TotalSum sim.Time
	Path     [telemetry.NumPhases]sim.Time
	Off      [telemetry.NumPhases]sim.Time
	WaitBy   [telemetry.NumWaits][telemetry.NumBinds]sim.Time
}

// TenantAgg aggregates recorded paths for one tenant across op kinds.
type TenantAgg struct {
	Count    [telemetry.NumOps]uint64
	TotalSum [telemetry.NumOps]sim.Time
	Path     [telemetry.NumPhases]sim.Time
}

// Options configures a Recorder.
type Options struct {
	// SampleCap bounds the path reservoir (default 4096 records). The
	// reservoir decimates deterministically: when full it keeps every
	// second record and doubles its admission stride, so it always holds
	// an evenly spaced sample of the run with no random state.
	SampleCap int
}

// DefaultSampleCap is the reservoir bound when Options.SampleCap is 0.
const DefaultSampleCap = 4096

// Recorder is a telemetry.Fold: it reports per-op and per-tenant
// critical-path aggregates and retains a deterministic sample of full paths
// for the what-if engine. The nil *Recorder is a valid no-op on every method
// and no per-IO method allocates (see the package comment).
type Recorder struct {
	// sink already folds every record into per-op and per-tenant counts,
	// totals and phase sums, and checks the exact sum once per IO; the
	// recorder reports those as deltas from base, their value at Attach or
	// the last Drain, and folds only what the sink does not keep: WaitBy,
	// the off-path ticks and the sampled paths.
	sink *telemetry.AttrSink
	base recorderBase

	ops    [telemetry.NumOps]OpAgg
	paths  []packed
	side   []PathRec // the sampled paths that do not pack, in sample order
	stride uint64
	seq    uint64
}

// Cell slots number a PathRec's tick cells in one fixed order: Path, then
// WaitBy, then Comp, each row by row.
const (
	waitBase = telemetry.NumPhases
	compBase = waitBase + telemetry.NumWaits*telemetry.NumBinds
	numSlots = compBase + telemetry.NumComposites*telemetry.NumPhases

	// maxCells bounds a packed path's nonzero cells. mixed_rw_armed's
	// sampled paths hold 2 to 7 and the full campaign's 2 to 9.
	maxCells = 12
)

// cell returns slot s of p.
func cell(p *PathRec, s int) *sim.Time {
	switch {
	case s < waitBase:
		return &p.Path[s]
	case s < compBase:
		s -= waitBase
		return &p.WaitBy[s/telemetry.NumBinds][s%telemetry.NumBinds]
	}
	s -= compBase
	return &p.Comp[s/telemetry.NumPhases][s%telemetry.NumPhases]
}

// packed is one sampled path in the reservoir: its nonzero cells as slot
// and tick, in slot order. A path with more than maxCells nonzero cells,
// a tick or Total outside [0, 2^32), or an Op or Tenant that does not fit
// a byte is kept whole in Recorder.side instead, at index side; side is -1
// for a path the cells hold.
type packed struct {
	total      uint32
	side       int32
	op, tenant uint8
	n          uint8
	slot       [maxCells]uint8
	tick       [maxCells]uint32
}

// pack fills k from p and reports whether p fits; k's side is -1 if so.
func (k *packed) pack(p *PathRec) bool {
	if !fits(p.Total) || telemetry.OpKind(uint8(p.Op)) != p.Op || telemetry.TenantID(uint8(p.Tenant)) != p.Tenant {
		return false
	}
	k.total, k.side, k.op, k.tenant, k.n = uint32(p.Total), -1, uint8(p.Op), uint8(p.Tenant), 0
	for s := 0; s < numSlots; s++ {
		t := *cell(p, s)
		if t == 0 {
			continue
		}
		if k.n == maxCells || !fits(t) {
			return false
		}
		k.slot[k.n], k.tick[k.n] = uint8(s), uint32(t)
		k.n++
	}
	return true
}

// fits reports whether t packs into a cell's four bytes.
func fits(t sim.Time) bool { return uint64(t) < 1<<32 }

// unpack expands k into the path it was packed from.
func (k *packed) unpack() PathRec {
	p := PathRec{Op: telemetry.OpKind(k.op), Tenant: telemetry.TenantID(k.tenant), Total: sim.Time(k.total)}
	for i := uint8(0); i < k.n; i++ {
		*cell(&p, int(k.slot[i])) = sim.Time(k.tick[i])
	}
	return p
}

// recorderBase is the sink's state a recorder's snapshot counts from.
type recorderBase struct {
	attr       telemetry.AttrSnapshot
	tenants    telemetry.TenantSnapshot
	violations uint64
}

// waitMask has the bits of the wait phases in a record's PhaseMask.
const waitMask = 1<<telemetry.PhaseWPSerial | 1<<telemetry.PhaseChanWait | 1<<telemetry.PhaseLUNWait

// New returns an empty recorder with a preallocated reservoir. The side
// list starts at SampleCap/64 entries and grows only past them: the GC
// counts an allocated span as live whether or not its pages were touched,
// so a full-size side list would cost the heap what packing saves.
func New(opts Options) *Recorder {
	cap_ := opts.SampleCap
	if cap_ <= 0 {
		cap_ = DefaultSampleCap
	}
	return &Recorder{paths: make([]packed, 0, cap_), side: make([]PathRec, 0, cap_/64), stride: 1}
}

// Attach creates a recorder and adds it to sink's folds. Returns nil (a
// valid no-op recorder) when sink is nil.
func Attach(sink *telemetry.AttrSink, opts Options) *Recorder {
	if sink == nil {
		return nil
	}
	r := New(opts)
	r.sink = sink
	r.base = r.mark()
	sink.Folds = append(sink.Folds, r)
	return r
}

// mark captures the sink state a snapshot counts from.
func (r *Recorder) mark() recorderBase {
	return recorderBase{r.sink.Snapshot(), r.sink.TenantSnapshot(), r.sink.PathViolations()}
}

// FromSink returns the recorder attached to sink, or nil if sink is nil or
// carries no recorder.
func FromSink(sink *telemetry.AttrSink) *Recorder {
	if sink == nil {
		return nil
	}
	for _, f := range sink.Folds {
		if r, ok := f.(*Recorder); ok {
			return r
		}
	}
	return nil
}

// Fold folds one completed IO's wait binds and off-path ticks into its
// op's aggregate and admits its path to the reservoir (telemetry.Fold).
// Only the wait phases and off-path phases the record touched are visited.
func (r *Recorder) Fold(rec *telemetry.Record) {
	if r == nil {
		return
	}
	a := &r.ops[rec.Op]
	for m := rec.PhaseMask & waitMask; m != 0; m &= m - 1 {
		w := telemetry.WaitIdx(telemetry.Phase(bits.TrailingZeros(uint(m))))
		for b := range a.WaitBy[w] {
			a.WaitBy[w][b] += rec.WaitBy[w][b]
		}
	}
	for m := rec.OffMask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros(uint(m))
		a.Off[p] += rec.Off[p]
	}
	r.admit(rec)
}

// admit applies deterministic stride decimation: every stride'th completed
// IO enters the reservoir; when the reservoir fills, every second retained
// record is dropped and the stride doubles. The retained set is always an
// evenly spaced subsample of the run — no random state, so same seed means
// same sample. The stride is a power of two, so a mask tests it.
func (r *Recorder) admit(rec *telemetry.Record) {
	if r.seq&(r.stride-1) == 0 {
		if len(r.paths) == cap(r.paths) {
			r.decimate()
		}
		if r.seq&(r.stride-1) == 0 && len(r.paths) < cap(r.paths) {
			p := PathOf(rec)
			r.paths = r.paths[:len(r.paths)+1]
			if k := &r.paths[len(r.paths)-1]; !k.pack(&p) {
				k.side = int32(len(r.side))
				r.side = append(r.side, p)
			}
		}
	}
	r.seq++
}

// decimate keeps every second sampled path and doubles the stride. The
// side list keeps the wide paths of the kept entries, in order.
func (r *Recorder) decimate() {
	keep, side := 0, 0
	for i := 0; i < len(r.paths); i += 2 {
		k := r.paths[i]
		if k.side >= 0 {
			r.side[side] = r.side[k.side]
			k.side = int32(side)
			side++
		}
		r.paths[keep] = k
		keep++
	}
	r.paths, r.side = r.paths[:keep], r.side[:side]
	r.stride *= 2
}

// Snapshot is a copyable capture of a recorder's aggregates and sampled
// paths. The what-if engine replays Paths; the report tables read Ops.
type Snapshot struct {
	IOs        uint64
	Violations uint64
	Ops        [telemetry.NumOps]OpAgg
	Tenants    [telemetry.MaxTenants]TenantAgg
	Paths      []PathRec
	Stride     uint64
}

// Snapshot returns a copy of the recorder's state since the last Drain.
// It allocates (expands the reservoir into PathRecs), so it is for
// publish/report time, not the per-IO path.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := r.mark()
	s := Snapshot{
		Violations: now.violations - r.base.violations,
		Ops:        r.ops,
		Stride:     r.stride,
		Paths:      make([]PathRec, len(r.paths)),
	}
	for i := range r.paths {
		if k := &r.paths[i]; k.side >= 0 {
			s.Paths[i] = r.side[k.side]
		} else {
			s.Paths[i] = k.unpack()
		}
	}
	for k := 0; k < telemetry.NumOps; k++ {
		n, b, o := &now.attr.Ops[k], &r.base.attr.Ops[k], &s.Ops[k]
		o.Count, o.TotalSum = n.Count-b.Count, n.TotalSum-b.TotalSum
		s.IOs += o.Count
		for p := range o.Path {
			o.Path[p] = n.PhaseSum[p] - b.PhaseSum[p]
		}
		for t := range s.Tenants {
			tn, tb, ta := &now.tenants.Tenants[t].Ops[k], &r.base.tenants.Tenants[t].Ops[k], &s.Tenants[t]
			ta.Count[k], ta.TotalSum[k] = tn.Count-tb.Count, tn.TotalSum-tb.TotalSum
			for p := range ta.Path {
				ta.Path[p] += tn.PhaseSum[p] - tb.PhaseSum[p]
			}
		}
	}
	return s
}

// Drain returns a snapshot of everything recorded since the previous Drain
// and resets the recorder, so one recorder shared across an experiment's
// stacks yields per-stack sections the way AttrSnapshot deltas do.
func (r *Recorder) Drain() Snapshot {
	s := r.Snapshot()
	r.Reset()
	return s
}

// Reset discards everything recorded since the previous Drain, as Drain
// does, without building the snapshot Drain returns.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.base = r.mark()
	r.ops = [telemetry.NumOps]OpAgg{}
	r.paths, r.side = r.paths[:0], r.side[:0]
	r.stride = 1
	r.seq = 0
}

// DrainFromSink drains the recorder attached to sink (no-op empty snapshot
// when none is attached).
func DrainFromSink(sink *telemetry.AttrSink) Snapshot {
	return FromSink(sink).Drain()
}
