package exemplar_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blockhead/internal/core"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
)

// The record folds against the previous design (oracle_test.go): both are
// fed the same charge streams — seeded random ones and ones recorded from
// E4's ZNS stack and E6's host-FTL stack — and every aggregate a report
// reads must come out identical: the attribution snapshot histogram by
// histogram, the tenant snapshot, the critical-path snapshot and the
// exemplar snapshot, at every drain.

// opCode names one call of a charge stream.
type opCode uint8

const (
	opBegin opCode = iota
	opCharge
	opBlamed
	opWait
	opSuspend
	opResume
	opReclassify
	opRefund
	opFlag
	opEnd
	opDrop
	opDrain
)

// streamOp is one call of a charge stream. For opEnd, d is the skew of the
// completion from the exact sum of the record's phases (0: exact).
type streamOp struct {
	code    opCode
	op      opKind
	p, to   phase
	culprit tenantID
	d       sim.Time
	flags   uint8
}

// chargeSink is the call surface both designs share.
type chargeSink interface {
	BeginTenant(op opKind, t tenantID, start sim.Time)
	Charge(p phase, d sim.Time)
	ChargeBlamed(p phase, d sim.Time, culprit tenantID)
	ChargeWaitBlamed(p phase, d sim.Time, culprit tenantID, bind phase)
	Reclassify(from, to phase, d sim.Time)
	Refund(p phase, d sim.Time) sim.Time
	Suspend()
	Resume()
	Value(p phase) sim.Time
	FlagIO(f uint8)
	End(done sim.Time)
	Drop()
}

// checkpoint is everything a report reads, captured at a drain.
type checkpoint struct {
	attr    telemetry.AttrSnapshot
	tenants telemetry.TenantSnapshot
	crit    critpath.Snapshot
	exem    exemplar.Snapshot
}

// armed is one design with its folds attached.
type armed struct {
	sink  chargeSink
	drain func() checkpoint
}

// snapOf is the device snapshot both reservoirs take: a pure function of
// the completion time, so a wrong completion time shows in it.
func snapOf(done sim.Time, s *exemplar.DevSnap) { s.GCRuns = uint64(done) }

func newArmed(sampleCap, k, flagCap int) armed {
	sink := telemetry.NewAttrSink()
	rec := critpath.Attach(sink, critpath.Options{SampleCap: sampleCap})
	res := exemplar.Attach(sink, exemplar.Options{K: k, FlagCap: flagCap})
	res.SetSnap(snapOf)
	return armed{sink: sink, drain: func() checkpoint {
		return checkpoint{sink.Snapshot(), sink.TenantSnapshot(), rec.Drain(), res.Drain()}
	}}
}

func oldArmed(sampleCap, k, flagCap int) armed {
	rec := newOldRecorder(sampleCap)
	res := newOldReservoir(k, flagCap)
	res.path, res.snap = rec, snapOf
	sink := &oldSink{Path: rec, Exem: res}
	return armed{sink: sink, drain: func() checkpoint {
		return checkpoint{sink.Snapshot(), sink.TenantSnapshot(), rec.Drain(), res.Drain()}
	}}
}

// replay drives a stream into one design and returns a checkpoint per
// drain, plus a final one. A begin's d is its offset from the previous
// begin or completion.
func replay(stream []streamOp, a armed) []checkpoint {
	var (
		cps   []checkpoint
		start sim.Time
		at    sim.Time
	)
	for _, o := range stream {
		s := a.sink
		switch o.code {
		case opBegin:
			start = at + o.d
			at = start
			s.BeginTenant(o.op, o.culprit, start)
		case opCharge:
			s.Charge(o.p, o.d)
		case opBlamed:
			s.ChargeBlamed(o.p, o.d, o.culprit)
		case opWait:
			s.ChargeWaitBlamed(o.p, o.d, o.culprit, o.to)
		case opSuspend:
			s.Suspend()
		case opResume:
			s.Resume()
		case opReclassify:
			s.Reclassify(o.p, o.to, o.d)
		case opRefund:
			s.Refund(o.p, o.d)
		case opFlag:
			s.FlagIO(o.flags)
		case opEnd:
			done := start + o.d
			for p := 0; p < numPhases; p++ {
				done += s.Value(phase(p))
			}
			s.End(done)
			at = done
		case opDrop:
			s.Drop()
		case opDrain:
			cps = append(cps, a.drain())
		}
	}
	return append(cps, a.drain())
}

// coverage counts the stream features the comparison must have seen.
type coverage struct {
	depth1, depth2, adopted, relabel, refund, drop, overOpen int
	tenants                                                  [3]int
}

// randomStream draws a seeded stream of n IOs over three tenants that
// exercises every charge kind: suspension at depths 1 and 2, off-path
// charges adopted by a composite, the lun_wait -> wp_serial relabel,
// refunds, flags, drops, a begin over an open record, inexact completions
// and mid-stream drains.
func randomStream(seed int64, n int) ([]streamOp, coverage) {
	rng := rand.New(rand.NewSource(seed))
	var (
		out []streamOp
		cov coverage
	)
	anyPhase := func() phase { return phase(rng.Intn(numPhases)) }
	waits := []phase{telemetry.PhaseLUNWait, telemetry.PhaseChanWait, telemetry.PhaseWPSerial}
	binds := []phase{-1, telemetry.PhaseXfer, telemetry.PhaseNANDRead, telemetry.PhaseNANDProgram, telemetry.PhaseNANDErase, telemetry.PhaseHostQueue}
	comps := []phase{telemetry.PhaseGCStall, telemetry.PhaseZoneReset, telemetry.PhaseDevCopy}
	culprit := func() tenantID { return tenantID(rng.Intn(6) - 1) } // -1 (self) .. 4
	dur := func() sim.Time { return sim.Time(rng.Intn(400) - 20) }  // a few non-positive
	for io := 0; io < n; io++ {
		t := tenantID(rng.Intn(3))
		cov.tenants[t]++
		out = append(out, streamOp{code: opBegin, op: opKind(rng.Intn(numOps)), culprit: t, d: sim.Time(rng.Intn(50))})
		depth, pending := 0, false
		for c := rng.Intn(14); c > 0; c-- {
			o := streamOp{d: dur(), culprit: culprit()}
			switch k := rng.Intn(20); {
			case k < 4:
				o.code, o.p = opCharge, anyPhase()
			case k < 7:
				o.code, o.p = opBlamed, anyPhase()
			case k < 11:
				o.code, o.p, o.to = opWait, waits[rng.Intn(len(waits))], binds[rng.Intn(len(binds))]
			case k < 13 && depth < 2:
				o.code = opSuspend
				depth++
				if depth == 2 {
					cov.depth2++
				}
			case k < 15 && depth > 0:
				o.code = opResume
				depth--
				if depth == 0 && rng.Intn(3) > 0 {
					// The fan-out's wall-clock lands as a composite charge.
					out = append(out, o)
					o = streamOp{code: opBlamed, p: comps[rng.Intn(len(comps))], d: sim.Time(1 + rng.Intn(900)), culprit: culprit()}
					if pending {
						cov.adopted++
						pending = false
					}
				}
			case k < 17:
				o.code, o.p, o.to = opReclassify, telemetry.PhaseLUNWait, telemetry.PhaseWPSerial
				if rng.Intn(4) == 0 {
					o.p, o.to = anyPhase(), anyPhase()
				}
				cov.relabel++
			case k < 19:
				o.code, o.p = opRefund, []phase{telemetry.PhaseWPSerial, telemetry.PhaseLUNWait, telemetry.PhaseChanWait, telemetry.PhaseNANDRead}[rng.Intn(4)]
				cov.refund++
			default:
				o.code, o.flags = opFlag, uint8(1+rng.Intn(3))
			}
			if depth == 1 && (o.code == opCharge || o.code == opBlamed || o.code == opWait) && o.d > 0 {
				pending = true
				cov.depth1++
			}
			out = append(out, o)
		}
		for ; depth > 0 && rng.Intn(8) > 0; depth-- {
			out = append(out, streamOp{code: opResume})
		}
		switch k := rng.Intn(40); {
		case k == 0:
			cov.overOpen++ // the next begin lands on this open record
		case k < 4:
			out = append(out, streamOp{code: opDrop})
			cov.drop++
		case k < 6:
			out = append(out, streamOp{code: opEnd, d: sim.Time(rng.Intn(3) - 1)})
		default:
			out = append(out, streamOp{code: opEnd})
		}
		if rng.Intn(300) == 0 {
			out = append(out, streamOp{code: opDrain})
		}
	}
	return out, cov
}

// capture records the charge stream a real stack feeds its sink, through
// the sink's tap and a fold, as a replayable stream.
type capture struct {
	seq    uint64
	at     sim.Time
	stream []streamOp
}

func (c *capture) begin(r *telemetry.Record) {
	if r.Seq == c.seq {
		return
	}
	c.seq = r.Seq
	c.stream = append(c.stream, streamOp{code: opBegin, op: r.Op, culprit: r.Tenant, d: r.Start - c.at})
	c.at = r.Start
}

func (c *capture) tap(r *telemetry.Record, ev telemetry.ChargeEvent) {
	c.begin(r)
	switch ev.Kind {
	case telemetry.EvSegment:
		c.stream = append(c.stream, streamOp{code: opBlamed, p: ev.P, culprit: ev.Culprit, d: ev.D})
	case telemetry.EvWait:
		c.stream = append(c.stream, streamOp{code: opWait, p: ev.P, to: ev.To, culprit: ev.Culprit, d: ev.D})
	case telemetry.EvOverlap:
		c.stream = append(c.stream, streamOp{code: opSuspend},
			streamOp{code: opCharge, p: ev.P, d: ev.D}, streamOp{code: opResume})
	case telemetry.EvReassign:
		c.stream = append(c.stream, streamOp{code: opReclassify, p: ev.P, to: ev.To, d: ev.D})
	case telemetry.EvRefund:
		c.stream = append(c.stream, streamOp{code: opRefund, p: ev.P, d: ev.D})
	case telemetry.EvDrop:
		c.stream = append(c.stream, streamOp{code: opDrop})
	}
}

func (c *capture) Fold(r *telemetry.Record) {
	c.begin(r)
	if r.Flags != 0 {
		c.stream = append(c.stream, streamOp{code: opFlag, flags: r.Flags})
	}
	var sum sim.Time
	for _, v := range r.Phases {
		sum += v
	}
	c.stream = append(c.stream, streamOp{code: opEnd, d: r.Total - sum})
	c.at = r.Start + r.Total
}

// recordedStream runs one experiment stack at -quick with a capturing sink.
func recordedStream(t *testing.T, run func(core.Config) error) []streamOp {
	t.Helper()
	c := &capture{}
	sink := telemetry.NewAttrSink()
	sink.Tap = c.tap
	sink.Folds = append(sink.Folds, c)
	if err := run(core.Config{Quick: true, Seed: 42, Probe: &telemetry.Probe{Attr: sink}}); err != nil {
		t.Fatal(err)
	}
	if len(c.stream) == 0 {
		t.Fatal("the stack fed its sink nothing")
	}
	return c.stream
}

// compareCheckpoints reports the first aggregate the two designs disagree
// on, naming the field.
func compareCheckpoints(t *testing.T, got, want []checkpoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d checkpoints, oracle %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		where := fmt.Sprintf("checkpoint %d", i)
		if g.attr.Violations != w.attr.Violations {
			t.Fatalf("%s: attribution violations %d, oracle %d", where, g.attr.Violations, w.attr.Violations)
		}
		for k := 0; k < numOps; k++ {
			ga, wa := g.attr.Ops[k], w.attr.Ops[k]
			if ga.Count != wa.Count || ga.TotalSum != wa.TotalSum || ga.Total != wa.Total || ga.PhaseSum != wa.PhaseSum {
				t.Fatalf("%s: %s totals differ:\n got %+v\nwant %+v", where, opKind(k), ga, wa)
			}
			for p := 0; p < numPhases; p++ {
				if ga.Phase[p] != wa.Phase[p] {
					t.Fatalf("%s: %s %s histogram differs:\n got %+v\nwant %+v", where, opKind(k), phase(p), ga.Phase[p], wa.Phase[p])
				}
			}
		}
		if g.tenants != w.tenants {
			t.Fatalf("%s: tenant snapshot differs:\n got %+v\nwant %+v", where, g.tenants, w.tenants)
		}
		gc, wc := g.crit, w.crit
		if gc.IOs != wc.IOs || gc.Violations != wc.Violations || gc.Stride != wc.Stride {
			t.Fatalf("%s: critpath ios/violations/stride %d/%d/%d, oracle %d/%d/%d",
				where, gc.IOs, gc.Violations, gc.Stride, wc.IOs, wc.Violations, wc.Stride)
		}
		for k := 0; k < numOps; k++ {
			if gc.Ops[k].Off != wc.Ops[k].Off {
				t.Fatalf("%s: critpath %s off-path ticks differ:\n got %v\nwant %v", where, opKind(k), gc.Ops[k].Off, wc.Ops[k].Off)
			}
			if gc.Ops[k].WaitBy != wc.Ops[k].WaitBy {
				t.Fatalf("%s: critpath %s WaitBy differs:\n got %v\nwant %v", where, opKind(k), gc.Ops[k].WaitBy, wc.Ops[k].WaitBy)
			}
			if gc.Ops[k] != wc.Ops[k] {
				t.Fatalf("%s: critpath %s aggregate differs:\n got %+v\nwant %+v", where, opKind(k), gc.Ops[k], wc.Ops[k])
			}
		}
		if gc.Tenants != wc.Tenants {
			t.Fatalf("%s: critpath tenant aggregates differ", where)
		}
		if len(gc.Paths) != len(wc.Paths) {
			t.Fatalf("%s: %d sampled paths, oracle %d", where, len(gc.Paths), len(wc.Paths))
		}
		for j := range wc.Paths {
			if gc.Paths[j].Comp != wc.Paths[j].Comp {
				t.Fatalf("%s: sampled path %d composition differs:\n got %v\nwant %v", where, j, gc.Paths[j].Comp, wc.Paths[j].Comp)
			}
			if gc.Paths[j] != wc.Paths[j] {
				t.Fatalf("%s: sampled path %d differs:\n got %+v\nwant %+v", where, j, gc.Paths[j], wc.Paths[j])
			}
		}
		if !reflect.DeepEqual(g.exem, w.exem) {
			t.Fatalf("%s: exemplar snapshot differs:\n got %+v\nwant %+v", where, g.exem, w.exem)
		}
	}
}

// TestRecordFoldsMatchOracleRandom feeds seeded random streams to both
// designs with small reservoirs, so path decimation, heap replacement and
// the flagged ring's wrap all run.
func TestRecordFoldsMatchOracleRandom(t *testing.T) {
	var total coverage
	for seed := int64(1); seed <= 12; seed++ {
		stream, cov := randomStream(seed, 3000)
		compareCheckpoints(t, replay(stream, newArmed(16, 3, 4)), replay(stream, oldArmed(16, 3, 4)))
		total.depth1 += cov.depth1
		total.depth2 += cov.depth2
		total.adopted += cov.adopted
		total.relabel += cov.relabel
		total.refund += cov.refund
		total.drop += cov.drop
		total.overOpen += cov.overOpen
		for i := range cov.tenants {
			total.tenants[i] += cov.tenants[i]
		}
	}
	if total.depth1 == 0 || total.depth2 == 0 || total.adopted == 0 || total.relabel == 0 ||
		total.refund == 0 || total.drop == 0 || total.overOpen == 0 || total.tenants[2] == 0 {
		t.Fatalf("the streams missed a feature: %+v", total)
	}
}

// TestRecordFoldsMatchOracleRecorded replays what E4's ZNS stack (wp_serial
// relabels, zone-reset composites) and E6's host-FTL stack (reclaim stalls
// over nested stripe resets) feed their sinks, at the default reservoir
// sizes the experiments use.
func TestRecordFoldsMatchOracleRecorded(t *testing.T) {
	stacks := []struct {
		name string
		run  func(core.Config) error
	}{
		{"E4/zns", func(cfg core.Config) error { _, err := core.E4ZNS(cfg); return err }},
		{"E6/hostftl", func(cfg core.Config) error { _, err := core.E6HostFTL(cfg); return err }},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			stream := recordedStream(t, st.run)
			got := replay(stream, newArmed(critpath.DefaultSampleCap, exemplar.DefaultK, exemplar.DefaultFlagCap))
			want := replay(stream, oldArmed(critpath.DefaultSampleCap, exemplar.DefaultK, exemplar.DefaultFlagCap))
			compareCheckpoints(t, got, want)
			if want[0].crit.IOs == 0 {
				t.Fatal("the replay completed no IOs")
			}
		})
	}
}

// discarding wraps a design so that every other mid-stream drain keeps
// only the attribution, as core's measured window does before it runs:
// with reset non-nil it calls reset there in place of the drain, and
// without it drains and drops the recordings.
func discarding(a armed, reset func()) armed {
	n := 0
	drain := a.drain
	a.drain = func() checkpoint {
		if n++; n%2 == 0 {
			return drain()
		}
		if reset != nil {
			reset()
			s := a.sink.(*telemetry.AttrSink)
			return checkpoint{attr: s.Snapshot(), tenants: s.TenantSnapshot()}
		}
		cp := drain()
		cp.crit, cp.exem = critpath.Snapshot{}, exemplar.Snapshot{}
		return cp
	}
	return a
}

// TestResetIsADiscardedDrain: Reset leaves the critical-path recorder and
// the exemplar reservoir as a Drain whose snapshot is dropped leaves them,
// so every later drain of seeded random streams is the same. The drains
// compared with are the oracle's (oracle_test.go), whose Drain is its own.
func TestResetIsADiscardedDrain(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		stream, _ := randomStream(seed, 3000)
		sink := telemetry.NewAttrSink()
		rec := critpath.Attach(sink, critpath.Options{SampleCap: 16})
		res := exemplar.Attach(sink, exemplar.Options{K: 3, FlagCap: 4})
		res.SetSnap(snapOf)
		resetting := armed{sink: sink, drain: func() checkpoint {
			return checkpoint{sink.Snapshot(), sink.TenantSnapshot(), rec.Drain(), res.Drain()}
		}}
		got := replay(stream, discarding(resetting, func() { rec.Reset(); res.Reset() }))
		want := replay(stream, discarding(oldArmed(16, 3, 4), nil))
		if len(got) < 3 {
			t.Fatalf("seed %d: %d checkpoints, want a reset between two drains", seed, len(got))
		}
		compareCheckpoints(t, got, want)
	}
}
