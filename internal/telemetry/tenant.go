package telemetry

import (
	"blockhead/internal/sim"
	"blockhead/internal/stats"
)

// TenantID names one isolation domain (a workload stream, a VM, a
// container) sharing the simulated device. Tenant 0 is the implicit
// "sys" tenant: prefill, warmup, and any IO the driver never tagged.
// IDs outside [0, MaxTenants) clamp to 0.
type TenantID int32

const (
	// MaxTenants bounds the tenant space so per-tenant state stays in
	// fixed arrays (no allocation on the hot path).
	MaxTenants = 8

	// SelfTenant is the sentinel culprit meaning "the active record's own
	// tenant": blame for a stall that no other tenant caused (cleaning up
	// after yourself, media retries, empty blame history).
	SelfTenant TenantID = -1
)

// blamePhases marks the stall phases that carry blame: time the victim
// lost to *someone's* competing activity. When an IO accrues ticks in one
// of these phases, the same ticks are charged to a culprit tenant, and
// End checks the conservation invariant
//
//	sum(blamed ticks) == sum(victim stall ticks)
//
// exactly, in the style of the sum(phases) == total invariant.
// PhaseWPSerial is included so the zns LUNWait→WPSerial Reclassify moves
// charge within the blamed set and conservation holds unchanged.
var blamePhases = [NumPhases]bool{
	PhaseWPSerial:  true,
	PhaseGCStall:   true,
	PhaseZoneReset: true,
	PhaseChanWait:  true,
	PhaseLUNWait:   true,
}

// clampTenant maps out-of-range IDs (including SelfTenant) to the sys
// tenant.
func clampTenant(t TenantID) TenantID {
	if t < 0 || t >= MaxTenants {
		return 0
	}
	return t
}

// TenantOpAttr aggregates one tenant's attribution for one op kind — the
// per-tenant slice of OpAttr, without the per-phase histograms (phase
// tails stay global; per-tenant latency tails live in the window ring).
type TenantOpAttr struct {
	Count    uint64
	TotalSum sim.Time
	Total    stats.Histogram
	PhaseSum [NumPhases]sim.Time
}

// Delta returns the aggregate accumulated since prev.
func (a TenantOpAttr) Delta(prev TenantOpAttr) TenantOpAttr {
	d := TenantOpAttr{
		Count:    a.Count - prev.Count,
		TotalSum: a.TotalSum - prev.TotalSum,
		Total:    a.Total.Delta(prev.Total),
	}
	for p := 0; p < NumPhases; p++ {
		d.PhaseSum[p] = a.PhaseSum[p] - prev.PhaseSum[p]
	}
	return d
}

// StallSum reports the tenant-op's total blamed-stall time (the sum over
// blame phases) — the row total the blame matrix must reconcile with.
func (a TenantOpAttr) StallSum() sim.Time {
	var s sim.Time
	for p := 0; p < NumPhases; p++ {
		if blamePhases[p] {
			s += a.PhaseSum[p]
		}
	}
	return s
}

// TenantAttr aggregates one tenant's attribution across op kinds.
type TenantAttr struct {
	Ops [NumOps]TenantOpAttr
}

// Delta returns the aggregates accumulated since prev.
func (a TenantAttr) Delta(prev TenantAttr) TenantAttr {
	var d TenantAttr
	for k := 0; k < NumOps; k++ {
		d.Ops[k] = a.Ops[k].Delta(prev.Ops[k])
	}
	return d
}

// BeginTenant opens the attribution record for one measured IO issued at
// start by tenant t (0: the sys tenant). No-op on a nil sink. A BeginTenant
// while a record is open abandons the old record (counted as a violation:
// the driver failed to End or Drop it). So does one that finds a Suspend
// left open since the last record closed: a path that ran between measured
// IOs leaked it.
func (s *AttrSink) BeginTenant(op OpKind, t TenantID, start sim.Time) {
	if s == nil {
		return
	}
	if s.active {
		s.pathViolations++
	}
	if s.active || s.suspended != 0 {
		s.violated(start)
	}
	s.active = true
	s.suspended = 0
	s.rec.reset(op, clampTenant(t), start)
}

// ChargeBlamed is Charge with an explicit culprit: d of the active IO's
// latency goes to phase p, and — when p is a blame phase — the same d is
// blamed on culprit. SelfTenant (or any out-of-range ID) blames the
// record's own tenant. Same no-op conditions as Charge. A charge to a
// composite phase adopts the pending off-path ticks as its composition.
func (s *AttrSink) ChargeBlamed(p Phase, d sim.Time, culprit TenantID) {
	if s == nil || !s.onPath(p, d, culprit) {
		return
	}
	if c := CompIdx(p); c >= 0 && s.rec.pendMask != 0 {
		s.rec.adopt(c)
	}
	s.tap(ChargeEvent{Kind: EvSegment, P: p, Culprit: culprit, D: d})
}

// ChargeWaitBlamed is ChargeBlamed for resource-wait phases (chan_wait,
// lun_wait), additionally recording which service phase the blocking
// occupant was running (bind; < 0 when unknown, e.g. a wait behind
// pre-instrumentation history) in the record's WaitBy. A what-if engine
// needs it to scale waits with the cost they queue behind, and a forensic
// narrator to say who held the resource.
func (s *AttrSink) ChargeWaitBlamed(p Phase, d sim.Time, culprit TenantID, bind Phase) {
	if s == nil || !s.onPath(p, d, culprit) {
		return
	}
	if w, b := WaitIdx(p), BindIdx(bind); w >= 0 && b >= 0 {
		s.rec.WaitBy[w][b] += d
	}
	s.tap(ChargeEvent{Kind: EvWait, P: p, To: bind, Culprit: culprit, D: d})
}

// Step is one queue-then-service interval of a flash operation: Queued
// ticks waiting for a resource whose occupant (Culprit) was running Bind,
// then Busy ticks of service phase Svc.
type Step struct {
	Wait    Phase
	Queued  sim.Time
	Culprit TenantID
	Bind    Phase
	Svc     Phase
	Busy    sim.Time
}

// ChargeSteps charges a page operation's two steps in order — for each,
// ChargeWaitBlamed(Wait, Queued, Culprit, Bind) then Charge(Svc, Busy) —
// so the record and the tap see exactly what those four calls produce.
func (s *AttrSink) ChargeSteps(a, b Step) {
	if s == nil || !s.active {
		return
	}
	s.ChargeWaitBlamed(a.Wait, a.Queued, a.Culprit, a.Bind)
	s.Charge(a.Svc, a.Busy)
	s.ChargeWaitBlamed(b.Wait, b.Queued, b.Culprit, b.Bind)
	s.Charge(b.Svc, b.Busy)
}

// workerDepth bounds the culprit stack; pushes beyond it saturate (the
// counter still nests, the deeper entries alias the top).
const workerDepth = 8

// PushWorker marks the tenant on whose behalf the device layers are about
// to work — reclamation relocating a polluter's pages, a reset recycling
// a tenant's zone — so resource-ownership tracking in internal/flash
// attributes the occupancy to that culprit even while the sink is
// suspended. SelfTenant (or any out-of-range ID) resolves to the current
// worker at push time. Pushes nest; every PushWorker pairs with a
// PopWorker.
func (s *AttrSink) PushWorker(t TenantID) {
	if s == nil {
		return
	}
	if t < 0 || t >= MaxTenants {
		t = s.workerTop()
	}
	if s.nworkers < workerDepth {
		s.workers[s.nworkers] = t
	}
	s.nworkers++
}

// PopWorker undoes one PushWorker.
func (s *AttrSink) PopWorker() {
	if s == nil || s.nworkers == 0 {
		return
	}
	s.nworkers--
}

// Worker reports the tenant currently occupying the device: the top of
// the pushed-culprit stack if any, else the active record's tenant, else
// the sys tenant. Device layers stamp resource ownership with it.
func (s *AttrSink) Worker() TenantID {
	if s == nil {
		return 0
	}
	return s.workerTop()
}

func (s *AttrSink) workerTop() TenantID {
	n := s.nworkers
	if n > workerDepth {
		n = workerDepth
	}
	if n > 0 {
		return s.workers[n-1]
	}
	if s.active {
		return s.rec.Tenant
	}
	return 0
}

// SetTenantName labels a tenant for reports and JSON exports. No-op on a
// nil sink or out-of-range ID.
func (s *AttrSink) SetTenantName(t TenantID, name string) {
	if s == nil {
		return
	}
	if t < 0 || t >= MaxTenants {
		return
	}
	s.tenantNames[t] = name
}

// TenantName reports a tenant's label ("sys" for the unnamed tenant 0,
// "t<i>" otherwise).
func (s *AttrSink) TenantName(t TenantID) string {
	if s == nil {
		return defaultTenantName(clampTenant(t))
	}
	t = clampTenant(t)
	if s.tenantNames[t] != "" {
		return s.tenantNames[t]
	}
	return defaultTenantName(t)
}

func defaultTenantName(t TenantID) string {
	if t == 0 {
		return "sys"
	}
	return "t" + string(rune('0'+t))
}

// TenantSnapshot is a copyable snapshot of the per-tenant aggregates and
// the victim×culprit blame matrix. Blame[v][c] is the virtual time tenant
// v lost in blame phases that was caused by tenant c; row v sums exactly
// to tenant v's blamed-stall total (the conservation invariant).
type TenantSnapshot struct {
	Tenants [MaxTenants]TenantAttr
	Blame   [MaxTenants][MaxTenants]sim.Time
	Names   [MaxTenants]string
}

// Delta returns the aggregates accumulated since prev.
func (s TenantSnapshot) Delta(prev TenantSnapshot) TenantSnapshot {
	d := TenantSnapshot{Names: s.Names}
	for t := 0; t < MaxTenants; t++ {
		d.Tenants[t] = s.Tenants[t].Delta(prev.Tenants[t])
		for c := 0; c < MaxTenants; c++ {
			d.Blame[t][c] = s.Blame[t][c] - prev.Blame[t][c]
		}
	}
	return d
}

// Active reports whether tenant t completed any IO or appears in the
// blame matrix (as victim or culprit).
func (s TenantSnapshot) Active(t TenantID) bool {
	if t < 0 || t >= MaxTenants {
		return false
	}
	for k := 0; k < NumOps; k++ {
		if s.Tenants[t].Ops[k].Count > 0 {
			return true
		}
	}
	for o := 0; o < MaxTenants; o++ {
		if s.Blame[t][o] != 0 || s.Blame[o][t] != 0 {
			return true
		}
	}
	return false
}

// Name reports tenant t's label, falling back to the default.
func (s TenantSnapshot) Name(t TenantID) string {
	t = clampTenant(t)
	if s.Names[t] != "" {
		return s.Names[t]
	}
	return defaultTenantName(t)
}

// SufferedNs reports the total blame-phase stall time tenant t accrued as
// a victim (row total of the blame matrix).
func (s TenantSnapshot) SufferedNs(t TenantID) sim.Time {
	t = clampTenant(t)
	var sum sim.Time
	for c := 0; c < MaxTenants; c++ {
		sum += s.Blame[t][c]
	}
	return sum
}

// BlamedNs reports the total stall time charged to tenant t as a culprit
// (column total of the blame matrix).
func (s TenantSnapshot) BlamedNs(t TenantID) sim.Time {
	t = clampTenant(t)
	var sum sim.Time
	for v := 0; v < MaxTenants; v++ {
		sum += s.Blame[v][t]
	}
	return sum
}

// StallNs reports tenant t's blame-phase stall total summed over op kinds
// — the independently-accumulated figure the blame row must equal.
func (s TenantSnapshot) StallNs(t TenantID) sim.Time {
	t = clampTenant(t)
	var sum sim.Time
	for k := 0; k < NumOps; k++ {
		sum += s.Tenants[t].Ops[k].StallSum()
	}
	return sum
}

// TenantSnapshot returns a copy of the per-tenant aggregates. Safe on a
// nil sink (empty snapshot).
func (s *AttrSink) TenantSnapshot() TenantSnapshot {
	if s == nil {
		return TenantSnapshot{}
	}
	return TenantSnapshot{Tenants: s.tenants, Blame: s.blame, Names: s.tenantNames}
}
