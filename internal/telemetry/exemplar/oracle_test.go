package exemplar_test

// The previous per-IO design, kept verbatim as the differential oracle for
// the record folds (record_oracle_test.go). In it the AttrSink kept its own
// copy of each IO's phases and blame, and forwarded every charge to a
// critical-path recorder through an 8-method PathSink and every IO's
// completion to an exemplar reservoir through a 3-method ExemplarSink; the
// recorder rebuilt the phases a second time and checked their sum again.
// Only what the comparison needs is kept: the windows, SLO, tenant names
// and worker stack do not touch the compared aggregates.

import (
	"sort"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
)

type (
	phase    = telemetry.Phase
	opKind   = telemetry.OpKind
	tenantID = telemetry.TenantID
)

const (
	numPhases  = telemetry.NumPhases
	maxTenants = telemetry.MaxTenants
	numOps     = telemetry.NumOps
)

type pathSink interface {
	BeginPath(op opKind, tenant tenantID, start sim.Time)
	Segment(p phase, d sim.Time)
	WaitSegment(p phase, d sim.Time, culprit tenantID, bind phase)
	Overlap(p phase, d sim.Time)
	Reassign(from, to phase, d sim.Time)
	Refund(p phase, d sim.Time)
	EndPath(done sim.Time)
	DropPath()
}

type exemplarSink interface {
	BeginExemplar(seq uint64, op opKind, tenant tenantID, start sim.Time)
	EndExemplar(done sim.Time, phases *[numPhases]sim.Time, blame *[maxTenants]sim.Time, flags uint8)
	DropExemplar()
}

var blamePhases = [numPhases]bool{
	telemetry.PhaseWPSerial:  true,
	telemetry.PhaseGCStall:   true,
	telemetry.PhaseZoneReset: true,
	telemetry.PhaseChanWait:  true,
	telemetry.PhaseLUNWait:   true,
}

func clampTenant(t tenantID) tenantID {
	if t < 0 || t >= maxTenants {
		return 0
	}
	return t
}

// oldSink is the previous AttrSink.
type oldSink struct {
	active    bool
	suspended int
	op        opKind
	start     sim.Time
	cur       [numPhases]sim.Time

	seq   uint64
	flags uint8

	tenant   tenantID
	curBlame [maxTenants]sim.Time

	ops        [numOps]telemetry.OpAttr
	violations uint64

	tenants [maxTenants]telemetry.TenantAttr
	blame   [maxTenants][maxTenants]sim.Time

	Path pathSink
	Exem exemplarSink
}

func (s *oldSink) BeginTenant(op opKind, t tenantID, start sim.Time) {
	if s == nil {
		return
	}
	if s.active {
		s.violations++
	}
	s.active = true
	s.suspended = 0
	s.op = op
	s.start = start
	s.cur = [numPhases]sim.Time{}
	s.tenant = clampTenant(t)
	s.curBlame = [maxTenants]sim.Time{}
	s.seq++
	s.flags = 0
	if s.Exem != nil {
		s.Exem.BeginExemplar(s.seq, op, s.tenant, start)
	}
	if s.Path != nil {
		s.Path.BeginPath(op, s.tenant, start)
	}
}

func (s *oldSink) Charge(p phase, d sim.Time) {
	if s == nil || !s.active || d <= 0 {
		return
	}
	if s.suspended > 0 {
		s.overlap(p, d)
		return
	}
	s.cur[p] += d
	if blamePhases[p] {
		s.curBlame[s.tenant] += d
	}
	if s.Path != nil {
		s.Path.Segment(p, d)
	}
}

func (s *oldSink) overlap(p phase, d sim.Time) {
	if s.suspended == 1 && s.Path != nil {
		s.Path.Overlap(p, d)
	}
}

func (s *oldSink) ChargeBlamed(p phase, d sim.Time, culprit tenantID) {
	if s == nil || !s.active || d <= 0 {
		return
	}
	if s.suspended > 0 {
		s.overlap(p, d)
		return
	}
	s.cur[p] += d
	if blamePhases[p] {
		if culprit < 0 || culprit >= maxTenants {
			culprit = s.tenant
		}
		s.curBlame[culprit] += d
	}
	if s.Path != nil {
		s.Path.Segment(p, d)
	}
}

func (s *oldSink) ChargeWaitBlamed(p phase, d sim.Time, culprit tenantID, bind phase) {
	if s == nil || !s.active || d <= 0 {
		return
	}
	if s.suspended > 0 {
		s.overlap(p, d)
		return
	}
	s.cur[p] += d
	resolved := culprit
	if blamePhases[p] {
		if resolved < 0 || resolved >= maxTenants {
			resolved = s.tenant
		}
		s.curBlame[resolved] += d
	}
	if s.Path != nil {
		s.Path.WaitSegment(p, d, culprit, bind)
	}
}

func (s *oldSink) Reclassify(from, to phase, d sim.Time) {
	if s == nil || !s.active || d <= 0 {
		return
	}
	if d > s.cur[from] {
		d = s.cur[from]
	}
	s.cur[from] -= d
	s.cur[to] += d
	if blamePhases[from] != blamePhases[to] {
		if blamePhases[to] {
			s.curBlame[s.tenant] += d
		} else {
			s.curBlame[s.tenant] -= d
		}
	}
	if s.Path != nil {
		s.Path.Reassign(from, to, d)
	}
}

func (s *oldSink) Refund(p phase, d sim.Time) sim.Time {
	if s == nil || !s.active || s.suspended > 0 || d <= 0 {
		return 0
	}
	if d > s.cur[p] {
		d = s.cur[p]
	}
	if d <= 0 {
		return 0
	}
	s.cur[p] -= d
	if blamePhases[p] {
		rem := d
		if take := sim.Min(rem, s.curBlame[s.tenant]); take > 0 {
			s.curBlame[s.tenant] -= take
			rem -= take
		}
		for c := 0; c < maxTenants && rem > 0; c++ {
			if take := sim.Min(rem, s.curBlame[c]); take > 0 {
				s.curBlame[c] -= take
				rem -= take
			}
		}
	}
	if s.Path != nil {
		s.Path.Refund(p, d)
	}
	return d
}

func (s *oldSink) Value(p phase) sim.Time {
	if s == nil || !s.active {
		return 0
	}
	return s.cur[p]
}

func (s *oldSink) Suspend() {
	if s == nil {
		return
	}
	s.suspended++
}

func (s *oldSink) Resume() {
	if s == nil {
		return
	}
	if s.suspended > 0 {
		s.suspended--
	}
}

func (s *oldSink) End(done sim.Time) {
	if s == nil || !s.active {
		return
	}
	s.active = false
	total := done - s.start
	var sum, stallSum, blameSum sim.Time
	for p := 0; p < numPhases; p++ {
		sum += s.cur[p]
		if blamePhases[p] {
			stallSum += s.cur[p]
		}
	}
	for c := 0; c < maxTenants; c++ {
		blameSum += s.curBlame[c]
	}
	if sum != total || s.suspended != 0 || blameSum != stallSum {
		s.violations++
	}
	a := &s.ops[s.op]
	a.Count++
	a.TotalSum += total
	a.Total.Add(total)
	for p := 0; p < numPhases; p++ {
		a.PhaseSum[p] += s.cur[p]
		a.Phase[p].Add(s.cur[p])
	}
	ta := &s.tenants[s.tenant].Ops[s.op]
	ta.Count++
	ta.TotalSum += total
	ta.Total.Add(total)
	for p := 0; p < numPhases; p++ {
		ta.PhaseSum[p] += s.cur[p]
	}
	for c := 0; c < maxTenants; c++ {
		s.blame[s.tenant][c] += s.curBlame[c]
	}
	if s.Path != nil {
		s.Path.EndPath(done)
	}
	if s.Exem != nil {
		s.Exem.EndExemplar(done, &s.cur, &s.curBlame, s.flags)
	}
}

func (s *oldSink) Drop() {
	if s == nil {
		return
	}
	if s.active && s.Path != nil {
		s.Path.DropPath()
	}
	if s.active && s.Exem != nil {
		s.Exem.DropExemplar()
	}
	s.active = false
	s.suspended = 0
}

func (s *oldSink) FlagIO(f uint8) {
	if s == nil || !s.active {
		return
	}
	s.flags |= f
}

func (s *oldSink) Violations() uint64 { return s.violations }

func (s *oldSink) Snapshot() telemetry.AttrSnapshot {
	return telemetry.AttrSnapshot{Ops: s.ops, Violations: s.violations}
}

func (s *oldSink) TenantSnapshot() telemetry.TenantSnapshot {
	return telemetry.TenantSnapshot{Tenants: s.tenants, Blame: s.blame}
}

func waitIdx(p phase) int {
	switch p {
	case telemetry.PhaseWPSerial:
		return 0
	case telemetry.PhaseChanWait:
		return 1
	case telemetry.PhaseLUNWait:
		return 2
	}
	return -1
}

func bindIdx(p phase) int {
	switch p {
	case telemetry.PhaseXfer:
		return 0
	case telemetry.PhaseNANDRead:
		return 1
	case telemetry.PhaseNANDProgram:
		return 2
	case telemetry.PhaseNANDErase:
		return 3
	}
	return -1
}

func compIdx(p phase) int {
	switch p {
	case telemetry.PhaseGCStall:
		return 0
	case telemetry.PhaseZoneReset:
		return 1
	case telemetry.PhaseDevCopy:
		return 2
	}
	return -1
}

// Program, erase, read, transfer.
var reassignBindOrder = [telemetry.NumBinds]int{2, 3, 1, 0}

// oldRecorder is the previous critpath.Recorder.
type oldRecorder struct {
	active   bool
	start    sim.Time
	rec      critpath.PathRec
	haveLast bool
	pend     [numPhases]sim.Time
	pendAny  bool
	off      [numPhases]sim.Time

	ios        uint64
	violations uint64
	ops        [numOps]critpath.OpAgg
	tenants    [maxTenants]critpath.TenantAgg

	paths  []critpath.PathRec
	stride uint64
	seq    uint64
}

func newOldRecorder(cap_ int) *oldRecorder {
	return &oldRecorder{paths: make([]critpath.PathRec, 0, cap_), stride: 1}
}

func (r *oldRecorder) BeginPath(op opKind, tenant tenantID, start sim.Time) {
	if r == nil {
		return
	}
	if r.active {
		r.violations++
	}
	r.active = true
	r.start = start
	r.rec = critpath.PathRec{Op: op, Tenant: tenant}
	r.haveLast = false
	r.pend = [numPhases]sim.Time{}
	r.pendAny = false
	r.off = [numPhases]sim.Time{}
}

func (r *oldRecorder) Segment(p phase, d sim.Time) {
	if r == nil || !r.active {
		return
	}
	r.rec.Path[p] += d
	if ci := compIdx(p); ci >= 0 && r.pendAny {
		for q := 0; q < numPhases; q++ {
			r.rec.Comp[ci][q] += r.pend[q]
		}
		r.pend = [numPhases]sim.Time{}
		r.pendAny = false
	}
}

func (r *oldRecorder) WaitSegment(p phase, d sim.Time, _ tenantID, bind phase) {
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

func (r *oldRecorder) Overlap(p phase, d sim.Time) {
	if r == nil || !r.active {
		return
	}
	r.pend[p] += d
	r.pendAny = true
	r.off[p] += d
}

func (r *oldRecorder) Reassign(from, to phase, d sim.Time) {
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

func (r *oldRecorder) Refund(p phase, d sim.Time) {
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

func (r *oldRecorder) EndPath(done sim.Time) {
	if r == nil || !r.active {
		return
	}
	r.active = false
	total := done - r.start
	r.rec.Total = total
	var sum sim.Time
	for p := 0; p < numPhases; p++ {
		sum += r.rec.Path[p]
	}
	if sum != total {
		r.violations++
	}
	r.ios++
	a := &r.ops[r.rec.Op]
	a.Count++
	a.TotalSum += total
	for p := 0; p < numPhases; p++ {
		a.Path[p] += r.rec.Path[p]
		a.Off[p] += r.off[p]
	}
	for w := 0; w < telemetry.NumWaits; w++ {
		for b := 0; b < telemetry.NumBinds; b++ {
			a.WaitBy[w][b] += r.rec.WaitBy[w][b]
		}
	}
	ta := &r.tenants[r.rec.Tenant]
	ta.Count[r.rec.Op]++
	ta.TotalSum[r.rec.Op] += total
	for p := 0; p < numPhases; p++ {
		ta.Path[p] += r.rec.Path[p]
	}
	r.haveLast = true
	r.admit()
}

func (r *oldRecorder) Last() (critpath.PathRec, bool) {
	if r == nil || !r.haveLast {
		return critpath.PathRec{}, false
	}
	return r.rec, true
}

func (r *oldRecorder) admit() {
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

func (r *oldRecorder) DropPath() {
	if r == nil {
		return
	}
	r.active = false
	r.haveLast = false
}

func (r *oldRecorder) Snapshot() critpath.Snapshot {
	s := critpath.Snapshot{
		IOs:        r.ios,
		Violations: r.violations,
		Ops:        r.ops,
		Tenants:    r.tenants,
		Stride:     r.stride,
		Paths:      make([]critpath.PathRec, len(r.paths)),
	}
	copy(s.Paths, r.paths)
	return s
}

func (r *oldRecorder) Drain() critpath.Snapshot {
	s := r.Snapshot()
	r.ios = 0
	r.violations = 0
	r.ops = [numOps]critpath.OpAgg{}
	r.tenants = [maxTenants]critpath.TenantAgg{}
	r.paths = r.paths[:0]
	r.stride = 1
	r.seq = 0
	return s
}

func worse(aTotal sim.Time, aSeq uint64, bTotal sim.Time, bSeq uint64) bool {
	if aTotal != bTotal {
		return aTotal > bTotal
	}
	return aSeq < bSeq
}

// oldReservoir is the previous exemplar.Reservoir.
type oldReservoir struct {
	k        int
	heaps    [maxTenants][]exemplar.Exemplar
	flagged  []exemplar.Exemplar
	flagNext int
	flagSeen uint64
	ios      uint64

	active bool
	seq    uint64
	op     opKind
	tenant tenantID
	start  sim.Time

	path *oldRecorder
	snap exemplar.SnapFunc
}

func newOldReservoir(k, fc int) *oldReservoir {
	r := &oldReservoir{k: k, flagged: make([]exemplar.Exemplar, 0, fc)}
	for t := 0; t < maxTenants; t++ {
		r.heaps[t] = make([]exemplar.Exemplar, 0, k)
	}
	return r
}

func (r *oldReservoir) BeginExemplar(seq uint64, op opKind, tenant tenantID, start sim.Time) {
	if r == nil {
		return
	}
	r.active = true
	r.seq = seq
	r.op = op
	r.tenant = tenant
	r.start = start
}

func (r *oldReservoir) EndExemplar(done sim.Time, phases *[numPhases]sim.Time, blame *[maxTenants]sim.Time, flags uint8) {
	if r == nil || !r.active {
		return
	}
	r.active = false
	r.ios++
	total := done - r.start
	heap := r.heaps[r.tenant]
	admitHeap := len(heap) < cap(heap) || worse(total, r.seq, heap[0].Total, heap[0].Seq)
	admitFlag := flags != 0
	if !admitHeap && !admitFlag {
		return
	}
	ex := exemplar.Exemplar{
		Seq:    r.seq,
		Op:     r.op,
		Tenant: r.tenant,
		Start:  r.start,
		Total:  total,
		Flags:  flags,
		Phases: *phases,
		Blame:  *blame,
	}
	if rec, ok := r.path.Last(); ok {
		ex.Path = rec
		ex.PathOK = true
	}
	if r.snap != nil {
		r.snap(done, &ex.Snap)
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

func (r *oldReservoir) admit(ex exemplar.Exemplar) {
	h := r.heaps[ex.Tenant]
	if len(h) < cap(h) {
		h = append(h, ex)
		r.heaps[ex.Tenant] = h
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

func (r *oldReservoir) DropExemplar() {
	if r == nil {
		return
	}
	r.active = false
}

func sortWorstFirst(ex []exemplar.Exemplar) {
	sort.Slice(ex, func(i, j int) bool {
		return worse(ex[i].Total, ex[i].Seq, ex[j].Total, ex[j].Seq)
	})
}

func (r *oldReservoir) Snapshot() exemplar.Snapshot {
	s := exemplar.Snapshot{IOs: r.ios, K: r.k, FlagSeen: r.flagSeen}
	for t := 0; t < maxTenants; t++ {
		if len(r.heaps[t]) == 0 {
			continue
		}
		ex := make([]exemplar.Exemplar, len(r.heaps[t]))
		copy(ex, r.heaps[t])
		sortWorstFirst(ex)
		s.Tenants[t] = ex
	}
	if len(r.flagged) > 0 {
		s.Flagged = make([]exemplar.Exemplar, len(r.flagged))
		copy(s.Flagged, r.flagged)
		sort.Slice(s.Flagged, func(i, j int) bool { return s.Flagged[i].Seq < s.Flagged[j].Seq })
	}
	return s
}

func (r *oldReservoir) Drain() exemplar.Snapshot {
	s := r.Snapshot()
	r.ios = 0
	r.flagSeen = 0
	r.flagNext = 0
	r.flagged = r.flagged[:0]
	for t := 0; t < maxTenants; t++ {
		r.heaps[t] = r.heaps[t][:0]
	}
	return s
}
