package telemetry

import (
	"math/bits"

	"blockhead/internal/sim"
	"blockhead/internal/stats"
)

// Phase names one component of an IO's end-to-end latency. The attribution
// layer decomposes every measured IO into these phases with a hard
// invariant: the per-phase charges sum *exactly* (zero-tick slack) to the
// end-to-end virtual-time latency. That exactness is possible because the
// simulator is a discrete-event model — sim.Resource reports the precise
// start and end of every acquisition, so each layer can charge contiguous
// sub-intervals of the IO's lifetime with nothing left over.
type Phase int

const (
	// PhaseHostQueue is time spent queued host-side before the device sees
	// the command (software queues, host-side admission).
	PhaseHostQueue Phase = iota
	// PhaseWPSerial is write-pointer serialization: a zone append waiting
	// behind the previous program to the same zone (the per-zone sequential
	// write constraint, §2.3).
	PhaseWPSerial
	// PhaseGCStall is time the host op stalled behind reclamation —
	// device-side garbage collection (internal/ftl) or host-side zone
	// reclaim (internal/hostftl).
	PhaseGCStall
	// PhaseZoneReset is an inline zone reset (stripe-wide erase) on the
	// write path, e.g. a circular log recycling its oldest zone.
	PhaseZoneReset
	// PhaseDevCopy is an inline device-side simple-copy (§2.3) on the
	// op's critical path.
	PhaseDevCopy
	// PhaseChanWait is channel-bus arbitration: waiting for the shared
	// channel to go idle before a page transfer.
	PhaseChanWait
	// PhaseXfer is the page moving over the channel bus.
	PhaseXfer
	// PhaseLUNWait is die contention: waiting for the LUN (plane) to finish
	// someone else's cell operation.
	PhaseLUNWait
	// PhaseNANDRead is the raw cell sense time.
	PhaseNANDRead
	// PhaseNANDProgram is the raw cell program time.
	PhaseNANDProgram
	// PhaseNANDErase is the raw block erase time.
	PhaseNANDErase

	// NumPhases is the number of attribution phases.
	NumPhases = int(PhaseNANDErase) + 1
)

var phaseNames = [NumPhases]string{
	"host_queue",
	"wp_serial",
	"gc_stall",
	"zone_reset",
	"dev_copy",
	"chan_wait",
	"bus_xfer",
	"lun_wait",
	"nand_read",
	"nand_program",
	"nand_erase",
}

// String returns the phase's stable wire name (used in JSON exports and
// report tables).
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// OpKind classifies an attributed IO.
type OpKind int

const (
	OpRead OpKind = iota
	OpWrite

	// NumOps is the number of op kinds.
	NumOps = int(OpWrite) + 1
)

var opNames = [NumOps]string{"read", "write"}

// String returns the op kind's stable wire name.
func (k OpKind) String() string {
	if k < 0 || int(k) >= NumOps {
		return "unknown"
	}
	return opNames[k]
}

// OpAttr aggregates attribution for one op kind. Phase means are exact
// (PhaseSum is an exact virtual-time total); the per-phase histograms give
// log-bucketed tail percentiles. In a snapshot every completed IO counts in
// *every* phase histogram (zero for phases it never entered), so a phase
// p99 reads as "99% of these ops spent at most this long in this phase".
type OpAttr struct {
	Count    uint64
	TotalSum sim.Time
	Total    stats.Histogram
	PhaseSum [NumPhases]sim.Time
	Phase    [NumPhases]stats.Histogram
}

// Delta returns the aggregate accumulated since prev was captured. All
// fields of OpAttr are monotonic, so subtraction is exact (histogram maxes
// are upper bounds; see stats.Histogram.Delta).
func (a OpAttr) Delta(prev OpAttr) OpAttr {
	d := OpAttr{
		Count:    a.Count - prev.Count,
		TotalSum: a.TotalSum - prev.TotalSum,
		Total:    a.Total.Delta(prev.Total),
	}
	for p := 0; p < NumPhases; p++ {
		d.PhaseSum[p] = a.PhaseSum[p] - prev.PhaseSum[p]
		d.Phase[p] = a.Phase[p].Delta(prev.Phase[p])
	}
	return d
}

// MeanPhase reports the exact mean time per IO spent in phase p.
func (a OpAttr) MeanPhase(p Phase) sim.Time {
	if a.Count == 0 {
		return 0
	}
	return a.PhaseSum[p] / sim.Time(a.Count)
}

// AttrSnapshot is a copyable snapshot of an AttrSink's aggregates.
type AttrSnapshot struct {
	Ops        [NumOps]OpAttr
	Violations uint64
}

// Delta returns the aggregates accumulated since prev.
func (s AttrSnapshot) Delta(prev AttrSnapshot) AttrSnapshot {
	d := AttrSnapshot{Violations: s.Violations - prev.Violations}
	for k := 0; k < NumOps; k++ {
		d.Ops[k] = s.Ops[k].Delta(prev.Ops[k])
	}
	return d
}

// AttrSink collects per-IO latency attribution. One record is active at a
// time — the simulator executes device ops synchronously, so the host
// driver brackets each measured op with BeginTenant/End and the layers in between
// call Charge for the sub-intervals they own.
//
// Every charge lands in the sink's one Record (record.go). End checks the
// record's invariants once, folds it into the per-op and per-tenant
// aggregates, and hands it to each attached Fold (the critical-path
// recorder, the exemplar reservoir, the -explain narrator).
//
// The nil *AttrSink is a valid no-op on every method, and no method
// allocates: the hot path stays 0 allocs/op with telemetry disabled
// (pinned by bench_test.go) and allocation-free when enabled. A sink is not
// safe for concurrent use: simulations that run at the same time each need
// their own.
type AttrSink struct {
	active    bool
	suspended int

	// rec is the open (or last completed) IO. Its Seq numbers measured IOs
	// (1-based, incremented by BeginTenant); together with the run's seed
	// and experiment ID it is the stable identity the forensic layer
	// replays to (`znsbench -explain <exp>:<seq>`).
	rec Record

	// The pushed-culprit ("worker") stack device layers consult for
	// resource ownership (tenant.go).
	workers  [workerDepth]TenantID
	nworkers int

	ops        [NumOps]OpAttr
	violations uint64
	// pathViolations counts the subset of violations that break the
	// critical-path contract: a phase sum that misses the end-to-end
	// latency, or a BeginTenant over an open record.
	pathViolations uint64

	tenants     [MaxTenants]TenantAttr
	blame       [MaxTenants][MaxTenants]sim.Time
	tenantNames [MaxTenants]string

	// Windows, if set, receives every completed IO for windowed
	// tail-latency tracking; SLO, if set, evaluates objectives over those
	// windows (see SLOResults). Both are nil-safe, so they stay nil unless
	// a driver arms them.
	Windows *WindowSet
	SLO     *SLOEngine

	// Folds each receive every completed record once, at End.
	Folds []Fold

	// Tap, if set, sees every charge of the open record as it lands, in
	// order, and the record's Drop. It is the one per-charge hook; only the
	// -explain narrator sets it.
	Tap func(r *Record, ev ChargeEvent)

	// OnViolation, if set, observes every invariant violation as it is
	// counted. NewProbe wires it to the flight recorder so a violation dumps
	// the recent device history; the hook may allocate (violations are
	// exceptional by contract).
	OnViolation func(at sim.Time)
}

// NewAttrSink returns an empty sink.
func NewAttrSink() *AttrSink { return &AttrSink{} }

// Charge attributes d of the active IO's latency to phase p. No-op when the
// sink is nil, no record is open (unmeasured work: prefill, warmup,
// background maintenance), or d <= 0. While the sink is suspended (parallel
// fan-out — the enclosing layer charges wall-clock instead) the charge is
// off-path: depth-1 charges are kept as the composition of the next
// composite charge, deeper ones are already represented by the enclosing
// composite one level up. A blame-phase charge with no explicit culprit
// (see ChargeBlamed) blames the record's own tenant, so blame conservation
// holds by construction.
func (s *AttrSink) Charge(p Phase, d sim.Time) { s.ChargeBlamed(p, d, SelfTenant) }

// onPath adds an on-path charge to the record and reports whether it did;
// a suspended charge goes off-path instead.
func (s *AttrSink) onPath(p Phase, d sim.Time, culprit TenantID) bool {
	if !s.active || d <= 0 {
		return false
	}
	r := &s.rec
	if s.suspended > 0 {
		if s.suspended == 1 {
			r.overlap(p, d)
			s.tap(ChargeEvent{Kind: EvOverlap, P: p, D: d})
		}
		return false
	}
	r.Phases[p] += d
	r.PhaseMask |= bit(p)
	if blamePhases[p] {
		if culprit < 0 || culprit >= MaxTenants {
			culprit = r.Tenant
		}
		r.Blame[culprit] += d
		r.BlameMask |= 1 << uint(culprit)
	}
	return true
}

// tap forwards one event to the Tap, if armed.
func (s *AttrSink) tap(ev ChargeEvent) {
	if s.Tap != nil {
		s.Tap(&s.rec, ev)
	}
}

// Reclassify moves up to d of the active record's charge from one phase to
// another, preserving the sum invariant. The zns layer uses it to relabel
// LUN-wait as write-pointer serialization when the wait was behind the same
// zone's previous program; bound wait ticks move with the charge.
func (s *AttrSink) Reclassify(from, to Phase, d sim.Time) {
	if s == nil || !s.active || d <= 0 {
		return
	}
	r := &s.rec
	d = sim.Min(d, r.Phases[from])
	r.Phases[from] -= d
	r.Phases[to] += d
	r.PhaseMask |= bit(to)
	// Keep blame conserved when the move crosses the blame-phase boundary.
	// The adjustment lands on the record's own tenant (the only culprit a
	// relabel can speak for); in-repo reclassifies stay inside the blamed
	// set (LUNWait -> WPSerial), so this is a no-op there.
	if blamePhases[from] != blamePhases[to] {
		if blamePhases[to] {
			r.Blame[r.Tenant] += d
		} else {
			r.Blame[r.Tenant] -= d
		}
		r.BlameMask |= 1 << uint(r.Tenant)
	}
	r.moveWaits(from, to, d)
	s.tap(ChargeEvent{Kind: EvReassign, P: from, To: to, D: d})
}

// Refund removes up to d ticks of already-charged time from phase p of the
// active record, returning the amount actually removed. Device layers call
// it when a counterfactual timing knob acknowledges the IO to the host
// before the underlying work finishes (the ZNS write-pointer early-ack in
// internal/zns): the host-visible latency shrinks, so the charged phases
// must shrink by exactly the same amount to keep sum(phases) == total.
// When p is a blame phase the refunded ticks are deducted from the
// record's blame charges too — from the record's own tenant first, then
// from culprits in ID order — so blame conservation holds exactly.
func (s *AttrSink) Refund(p Phase, d sim.Time) sim.Time {
	if s == nil || !s.active || s.suspended > 0 || d <= 0 {
		return 0
	}
	r := &s.rec
	if d = sim.Min(d, r.Phases[p]); d <= 0 {
		return 0
	}
	r.Phases[p] -= d
	if blamePhases[p] {
		rem := d
		if take := sim.Min(rem, r.Blame[r.Tenant]); take > 0 {
			r.Blame[r.Tenant] -= take
			rem -= take
		}
		for m := r.BlameMask; m != 0 && rem > 0; m &= m - 1 {
			c := bits.TrailingZeros(uint(m))
			if take := sim.Min(rem, r.Blame[c]); take > 0 {
				r.Blame[c] -= take
				rem -= take
			}
		}
	}
	r.moveWaits(p, -1, d)
	s.tap(ChargeEvent{Kind: EvRefund, P: p, D: d})
	return d
}

// Value reports the active record's current charge for phase p (0 if nil
// or no record is open). Layers use it to measure what their callees just
// charged, e.g. before a Reclassify.
func (s *AttrSink) Value(p Phase) sim.Time {
	if s == nil || !s.active {
		return 0
	}
	return s.rec.Phases[p]
}

// Suspend stops Charge from accumulating until the matching Resume. Layers
// that fan work out in parallel (GC relocations across LUNs, stripe-wide
// zone resets, simple-copy batches) suspend the sink around the fan-out and
// charge the IO one wall-clock phase instead — per-sub-op charges would
// double-count time that elapsed concurrently. Suspensions nest.
func (s *AttrSink) Suspend() {
	if s == nil {
		return
	}
	s.suspended++
}

// Resume undoes one Suspend.
func (s *AttrSink) Resume() {
	if s == nil {
		return
	}
	if s.suspended > 0 {
		s.suspended--
	}
}

// End closes the active record for an IO that completed at done, checks —
// once — the sum invariant, the blame-conservation invariant and the
// bracket balance, folds the record into the per-op and per-tenant
// aggregates, and hands it to every attached Fold. A record whose phases do
// not sum exactly to done-start, whose blame does not sum exactly to its
// blame-phase stalls, or that ends with a Suspend or a PushWorker still open
// increments Violations (it is still aggregated, so the discrepancy is
// visible, not hidden); End then closes any open Suspend. Phase histograms record only the phases the IO
// entered; the snapshot derives each histogram's zeros from Count.
func (s *AttrSink) End(done sim.Time) {
	if s == nil || !s.active {
		return
	}
	s.active = false
	r := &s.rec
	r.Total = done - r.Start
	a, ta := &s.ops[r.Op], &s.tenants[r.Tenant].Ops[r.Op]
	var sum, stallSum, blameSum sim.Time
	for m := r.PhaseMask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros(uint(m))
		v := r.Phases[p]
		sum += v
		if blamePhases[p] {
			stallSum += v
		}
		a.PhaseSum[p] += v
		ta.PhaseSum[p] += v
		if v != 0 {
			a.Phase[p].Add(v)
		}
	}
	row := &s.blame[r.Tenant]
	for m := r.BlameMask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros(uint(m))
		blameSum += r.Blame[c]
		row[c] += r.Blame[c]
	}
	if sum != r.Total {
		s.pathViolations++
	}
	if sum != r.Total || s.suspended != 0 || s.nworkers != 0 || blameSum != stallSum {
		s.violated(done)
	}
	s.suspended = 0 // counted once here, not again by the next BeginTenant
	a.Count++
	a.TotalSum += r.Total
	a.Total.Add(r.Total)
	ta.Count++
	ta.TotalSum += r.Total
	ta.Total.Add(r.Total)
	s.Windows.Observe(r.Tenant, r.Op, done, r.Total)
	for _, f := range s.Folds {
		f.Fold(r)
	}
}

// violated counts one violation and reports it to OnViolation.
func (s *AttrSink) violated(at sim.Time) {
	s.violations++
	if s.OnViolation != nil {
		s.OnViolation(at)
	}
}

// Drop abandons the active record without aggregating it — for IOs that
// fail partway (their charges are meaningless).
func (s *AttrSink) Drop() {
	if s == nil {
		return
	}
	if s.active {
		s.tap(ChargeEvent{Kind: EvDrop})
	}
	s.active = false
	s.suspended = 0
}

// FlagIO marks the active record with an exceptional-condition flag
// (FlagFaultRetry, FlagAuditViolation). Flagged IOs bypass the exemplar
// reservoir's worst-K admission so they are always inspectable. No-op when
// the sink is nil or no record is open (an unmeasured IO tripping a fault
// has no record to flag).
func (s *AttrSink) FlagIO(f uint8) {
	if s == nil || !s.active {
		return
	}
	s.rec.Flags |= f
}

// Seq reports the sequence number of the most recently begun measured IO
// (0 before the first BeginTenant). Together with the run's seed and
// experiment ID it identifies one IO for forensic replay.
func (s *AttrSink) Seq() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.Seq
}

// Violations reports how many records broke the attribution contract
// (phases not summing to total, unbalanced suspends, unconserved blame,
// BeginTenant over an open record). Always 0 in a correct build; the
// invariant test asserts it.
func (s *AttrSink) Violations() uint64 {
	if s == nil {
		return 0
	}
	return s.violations
}

// PathViolations reports the violations that break the critical-path
// contract — a phase sum that misses the end-to-end latency, or a
// BeginTenant over an open record — the count critpath reports as its own.
func (s *AttrSink) PathViolations() uint64 {
	if s == nil {
		return 0
	}
	return s.pathViolations
}

// Snapshot returns a copy of all aggregates. Snapshots of a shared sink
// taken before and after an experiment Delta into that experiment's own
// breakdown. Each phase histogram gets its zeros here — one per IO that
// never entered the phase — so it reads as if every IO had observed into
// every phase.
func (s *AttrSink) Snapshot() AttrSnapshot {
	if s == nil {
		return AttrSnapshot{}
	}
	snap := AttrSnapshot{Ops: s.ops, Violations: s.violations}
	for k := range snap.Ops {
		a := &snap.Ops[k]
		for p := range a.Phase {
			a.Phase[p].AddZeros(a.Count - a.Phase[p].Count())
		}
	}
	return snap
}

// AttrDump is the JSON shape of an attribution export.
type AttrDump struct {
	Violations uint64                `json:"violations"`
	Ops        map[string]OpAttrDump `json:"ops"`
}

// OpAttrDump is the JSON shape of one op kind's attribution aggregate.
// Phases are in display order and omit phases this op never entered.
type OpAttrDump struct {
	Count  uint64      `json:"count"`
	MeanUs float64     `json:"mean_us"`
	P50Us  float64     `json:"p50_us"`
	P90Us  float64     `json:"p90_us"`
	P99Us  float64     `json:"p99_us"`
	P999Us float64     `json:"p999_us"`
	MaxUs  float64     `json:"max_us"`
	Phases []PhaseDump `json:"phases"`
}

// PhaseDump is one phase of an op's latency decomposition. MeanUs is exact;
// Frac is this phase's share of the op's total latency; the percentiles are
// log-bucket upper bounds over all IOs of the op kind (zeros included).
type PhaseDump struct {
	Name   string  `json:"name"`
	MeanUs float64 `json:"mean_us"`
	Frac   float64 `json:"frac"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Dump converts the snapshot to its JSON shape.
func (s AttrSnapshot) Dump() AttrDump {
	d := AttrDump{Violations: s.Violations, Ops: map[string]OpAttrDump{}}
	for k := 0; k < NumOps; k++ {
		a := s.Ops[k]
		if a.Count == 0 {
			continue
		}
		od := OpAttrDump{
			Count:  a.Count,
			MeanUs: (a.TotalSum / sim.Time(a.Count)).Micros(),
			P50Us:  a.Total.Percentile(50).Micros(),
			P90Us:  a.Total.Percentile(90).Micros(),
			P99Us:  a.Total.Percentile(99).Micros(),
			P999Us: a.Total.Percentile(99.9).Micros(),
			MaxUs:  a.Total.Max().Micros(),
			Phases: []PhaseDump{},
		}
		for p := 0; p < NumPhases; p++ {
			if a.PhaseSum[p] == 0 {
				continue
			}
			frac := 0.0
			if a.TotalSum > 0 {
				frac = float64(a.PhaseSum[p]) / float64(a.TotalSum)
			}
			od.Phases = append(od.Phases, PhaseDump{
				Name:   Phase(p).String(),
				MeanUs: a.MeanPhase(Phase(p)).Micros(),
				Frac:   frac,
				P99Us:  a.Phase[p].Percentile(99).Micros(),
				P999Us: a.Phase[p].Percentile(99.9).Micros(),
				MaxUs:  a.Phase[p].Max().Micros(),
			})
		}
		d.Ops[opNames[k]] = od
	}
	return d
}
