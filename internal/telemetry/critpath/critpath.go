// Package critpath records, for every completed IO, the critical path of
// its end-to-end latency: which attribution phases actually bound
// completion time (on-path ticks) versus device work that ran concurrently
// underneath a composite stall (off-path ticks). It layers on the AttrSink
// charge stream via telemetry.PathSink — the device models need no new
// instrumentation beyond the wait-bind annotation in internal/flash.
//
// The recorder inherits the attribution layer's contract wholesale:
//
//   - Hard invariant: the recorded critical-path ticks of an IO sum
//     *exactly* (zero-tick slack) to its end-to-end latency. Violations
//     are counted, never hidden.
//   - The nil *Recorder is a valid no-op on every method.
//   - No method allocates: the reservoir is preallocated, so the hot path
//     stays 0 allocs/op whether the recorder is attached or not.
//
// On top of the recorded paths, whatif.go replays them under counterfactual
// phase scalings and predicts the resulting latency distribution.
package critpath

import (
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// Wait phases queue behind another occupant's service; the recorder keeps,
// per wait phase, how many ticks were spent behind each service ("bind")
// phase, so the what-if engine can scale a wait with the cost it tracks.
const (
	WaitWPSerial = iota
	WaitChan
	WaitLUN

	// NumWaits is the number of resource-wait phases.
	NumWaits
)

// Bind phases are the service phases a wait can queue behind.
const (
	BindXfer = iota
	BindRead
	BindProgram
	BindErase

	// NumBinds is the number of bind phases.
	NumBinds
)

// Composite phases charge the wall-clock of a suspended parallel fan-out
// (GC relocations, stripe-wide resets, simple-copy batches). The recorder
// keeps each composite charge's composition: the off-path ticks that
// arrived while the sink was suspended, attached to the next composite
// charge.
const (
	CompGCStall = iota
	CompZoneReset
	CompDevCopy

	// NumComposites is the number of composite phases.
	NumComposites
)

// waitIdx maps a phase to its wait slot (-1 if not a wait phase).
func waitIdx(p telemetry.Phase) int {
	switch p {
	case telemetry.PhaseWPSerial:
		return WaitWPSerial
	case telemetry.PhaseChanWait:
		return WaitChan
	case telemetry.PhaseLUNWait:
		return WaitLUN
	}
	return -1
}

// bindIdx maps a phase to its bind slot (-1 if not a service phase).
func bindIdx(p telemetry.Phase) int {
	switch p {
	case telemetry.PhaseXfer:
		return BindXfer
	case telemetry.PhaseNANDRead:
		return BindRead
	case telemetry.PhaseNANDProgram:
		return BindProgram
	case telemetry.PhaseNANDErase:
		return BindErase
	}
	return -1
}

// bindPhase is the inverse of bindIdx.
func bindPhase(b int) telemetry.Phase {
	switch b {
	case BindXfer:
		return telemetry.PhaseXfer
	case BindRead:
		return telemetry.PhaseNANDRead
	case BindProgram:
		return telemetry.PhaseNANDProgram
	case BindErase:
		return telemetry.PhaseNANDErase
	}
	return -1
}

// compIdx maps a phase to its composite slot (-1 if not composite).
func compIdx(p telemetry.Phase) int {
	switch p {
	case telemetry.PhaseGCStall:
		return CompGCStall
	case telemetry.PhaseZoneReset:
		return CompZoneReset
	case telemetry.PhaseDevCopy:
		return CompDevCopy
	}
	return -1
}

// reassignBindOrder is the deterministic order Reassign and Refund deduct
// bound wait ticks in. Program first: the only in-repo reclassify
// (lun_wait -> wp_serial) and the only in-repo refund (wp_serial early
// ack) both concern waits behind a same-zone program by construction.
var reassignBindOrder = [NumBinds]int{BindProgram, BindErase, BindRead, BindXfer}

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
	WaitBy [NumWaits][NumBinds]sim.Time
	Comp   [NumComposites][telemetry.NumPhases]sim.Time
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
	WaitBy   [NumWaits][NumBinds]sim.Time
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

// Recorder implements telemetry.PathSink: it reconstructs one PathRec per
// measured IO from the AttrSink's charge feed, maintains per-op and
// per-tenant aggregates, and retains a deterministic sample of full paths
// for the what-if engine. The nil *Recorder is a valid no-op on every
// method and no method allocates (see the package comment).
//
//simlint:nilsafe
type Recorder struct {
	active   bool
	start    sim.Time
	rec      PathRec
	haveLast bool
	pend     [telemetry.NumPhases]sim.Time
	pendAny  bool
	off      [telemetry.NumPhases]sim.Time

	ios        uint64
	violations uint64
	ops        [telemetry.NumOps]OpAgg
	tenants    [telemetry.MaxTenants]TenantAgg

	paths  []PathRec
	stride uint64
	seq    uint64

	// OnViolation, if set, observes every path invariant violation (the
	// path ticks of a completed IO not summing exactly to its end-to-end
	// latency). May allocate; violations are exceptional by contract.
	OnViolation func(at sim.Time)
}

// New returns an empty recorder with a preallocated reservoir.
func New(opts Options) *Recorder {
	cap_ := opts.SampleCap
	if cap_ <= 0 {
		cap_ = DefaultSampleCap
	}
	return &Recorder{paths: make([]PathRec, 0, cap_), stride: 1}
}

// Attach creates a recorder and installs it as sink's path sink. Returns
// nil (a valid no-op recorder) when sink is nil.
func Attach(sink *telemetry.AttrSink, opts Options) *Recorder {
	if sink == nil {
		return nil
	}
	r := New(opts)
	sink.Path = r
	return r
}

// FromSink returns the recorder attached to sink, or nil if sink is nil or
// carries no recorder.
func FromSink(sink *telemetry.AttrSink) *Recorder {
	if sink == nil {
		return nil
	}
	r, _ := sink.Path.(*Recorder)
	return r
}

// BeginPath opens the path record for one measured IO (telemetry.PathSink).
// A begin over an open record abandons the old one and counts a violation,
// mirroring the AttrSink.
func (r *Recorder) BeginPath(op telemetry.OpKind, tenant telemetry.TenantID, start sim.Time) {
	if r == nil {
		return
	}
	if r.active {
		r.violations++
		if r.OnViolation != nil {
			r.OnViolation(start)
		}
	}
	r.active = true
	r.start = start
	r.rec = PathRec{Op: op, Tenant: tenant}
	r.haveLast = false
	r.pend = [telemetry.NumPhases]sim.Time{}
	r.pendAny = false
	r.off = [telemetry.NumPhases]sim.Time{}
}

// Segment records an on-path charge (telemetry.PathSink). A charge to a
// composite phase adopts the pending off-path ticks as its composition.
func (r *Recorder) Segment(p telemetry.Phase, d sim.Time) {
	if r == nil || !r.active {
		return
	}
	r.rec.Path[p] += d
	if ci := compIdx(p); ci >= 0 && r.pendAny {
		for q := 0; q < telemetry.NumPhases; q++ {
			r.rec.Comp[ci][q] += r.pend[q]
		}
		r.pend = [telemetry.NumPhases]sim.Time{}
		r.pendAny = false
	}
}

// WaitSegment records an on-path wait charge with the service phase it
// queued behind (telemetry.PathSink). The culprit tenant is not aggregated
// here — the blame matrix already carries it — so only the bind is kept.
func (r *Recorder) WaitSegment(p telemetry.Phase, d sim.Time, _ telemetry.TenantID, bind telemetry.Phase) {
	if r == nil || !r.active {
		return
	}
	r.rec.Path[p] += d
	if wi := waitIdx(p); wi >= 0 {
		if bi := bindIdx(bind); bi >= 0 {
			r.rec.WaitBy[wi][bi] += d
		}
	}
}

// Overlap records an off-path charge: work that ran while the sink was
// suspended at depth 1 (telemetry.PathSink). The ticks are held pending
// and attached to the next composite charge's composition; they also
// accumulate into the op's off-path totals either way.
func (r *Recorder) Overlap(p telemetry.Phase, d sim.Time) {
	if r == nil || !r.active {
		return
	}
	r.pend[p] += d
	r.pendAny = true
	r.off[p] += d
}

// Reassign moves up to d ticks from one phase to another, mirroring
// AttrSink.Reclassify (telemetry.PathSink). Bound wait ticks move with the
// charge, program-bound first (see reassignBindOrder).
func (r *Recorder) Reassign(from, to telemetry.Phase, d sim.Time) {
	if r == nil || !r.active || d <= 0 {
		return
	}
	if d > r.rec.Path[from] {
		d = r.rec.Path[from]
	}
	r.rec.Path[from] -= d
	r.rec.Path[to] += d
	fi, ti := waitIdx(from), waitIdx(to)
	if fi < 0 {
		return
	}
	rem := d
	for _, b := range reassignBindOrder {
		take := sim.Min(rem, r.rec.WaitBy[fi][b])
		if take <= 0 {
			continue
		}
		r.rec.WaitBy[fi][b] -= take
		if ti >= 0 {
			r.rec.WaitBy[ti][b] += take
		}
		rem -= take
		if rem == 0 {
			break
		}
	}
}

// Refund removes up to d ticks from phase p, mirroring AttrSink.Refund
// (telemetry.PathSink). Bound wait ticks are deducted program-bound first.
func (r *Recorder) Refund(p telemetry.Phase, d sim.Time) {
	if r == nil || !r.active || d <= 0 {
		return
	}
	if d > r.rec.Path[p] {
		d = r.rec.Path[p]
	}
	r.rec.Path[p] -= d
	wi := waitIdx(p)
	if wi < 0 {
		return
	}
	rem := d
	for _, b := range reassignBindOrder {
		take := sim.Min(rem, r.rec.WaitBy[wi][b])
		if take <= 0 {
			continue
		}
		r.rec.WaitBy[wi][b] -= take
		rem -= take
		if rem == 0 {
			break
		}
	}
}

// EndPath closes the path record for an IO that completed at done
// (telemetry.PathSink): checks the exact-sum invariant, folds the record
// into the aggregates, and admits it to the reservoir.
func (r *Recorder) EndPath(done sim.Time) {
	if r == nil || !r.active {
		return
	}
	r.active = false
	total := done - r.start
	r.rec.Total = total
	var sum sim.Time
	for p := 0; p < telemetry.NumPhases; p++ {
		sum += r.rec.Path[p]
	}
	if sum != total {
		r.violations++
		if r.OnViolation != nil {
			r.OnViolation(done)
		}
	}
	r.ios++
	a := &r.ops[r.rec.Op]
	a.Count++
	a.TotalSum += total
	for p := 0; p < telemetry.NumPhases; p++ {
		a.Path[p] += r.rec.Path[p]
		a.Off[p] += r.off[p]
	}
	for w := 0; w < NumWaits; w++ {
		for b := 0; b < NumBinds; b++ {
			a.WaitBy[w][b] += r.rec.WaitBy[w][b]
		}
	}
	ta := &r.tenants[r.rec.Tenant]
	ta.Count[r.rec.Op]++
	ta.TotalSum[r.rec.Op] += total
	for p := 0; p < telemetry.NumPhases; p++ {
		ta.Path[p] += r.rec.Path[p]
	}
	r.haveLast = true
	r.admit()
}

// Last returns a copy of the most recently completed path record, valid
// from EndPath until the next BeginPath. The exemplar layer reads it inside
// ExemplarSink.EndExemplar (which the AttrSink fires right after EndPath)
// to capture the completed IO's critical-path split. Nil-safe.
func (r *Recorder) Last() (PathRec, bool) {
	if r == nil || !r.haveLast {
		return PathRec{}, false
	}
	return r.rec, true
}

// admit applies deterministic stride decimation: every stride'th completed
// IO enters the reservoir; when the reservoir fills, every second retained
// record is dropped and the stride doubles. The retained set is always an
// evenly spaced subsample of the run — no random state, so same seed means
// same sample.
func (r *Recorder) admit() {
	if r.seq%r.stride == 0 {
		if len(r.paths) == cap(r.paths) {
			keep := 0
			for i := 0; i < len(r.paths); i += 2 {
				r.paths[keep] = r.paths[i]
				keep++
			}
			r.paths = r.paths[:keep]
			r.stride *= 2
		}
		if r.seq%r.stride == 0 && len(r.paths) < cap(r.paths) {
			r.paths = append(r.paths, r.rec)
		}
	}
	r.seq++
}

// DropPath abandons the open path record (telemetry.PathSink).
func (r *Recorder) DropPath() {
	if r == nil {
		return
	}
	r.active = false
	r.haveLast = false
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
// It allocates (copies the reservoir), so it is for publish/report time,
// not the per-IO path.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		IOs:        r.ios,
		Violations: r.violations,
		Ops:        r.ops,
		Tenants:    r.tenants,
		Stride:     r.stride,
		Paths:      make([]PathRec, len(r.paths)),
	}
	copy(s.Paths, r.paths)
	return s
}

// Drain returns a snapshot of everything recorded since the previous Drain
// and resets the recorder, so one recorder shared across an experiment's
// stacks yields per-stack sections the way AttrSnapshot deltas do.
func (r *Recorder) Drain() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := r.Snapshot()
	r.ios = 0
	r.violations = 0
	r.ops = [telemetry.NumOps]OpAgg{}
	r.tenants = [telemetry.MaxTenants]TenantAgg{}
	r.paths = r.paths[:0]
	r.stride = 1
	r.seq = 0
	return s
}

// DrainFromSink drains the recorder attached to sink (no-op empty snapshot
// when none is attached).
func DrainFromSink(sink *telemetry.AttrSink) Snapshot {
	return FromSink(sink).Drain()
}
