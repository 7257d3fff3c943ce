package core

import (
	"fmt"
	"reflect"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// shiftRun is what one time-shifted drive leaves to compare: the driver's
// result and, when armed, the three telemetry folds' snapshots.
type shiftRun struct {
	res  MixedResult
	attr telemetry.AttrSnapshot
	crit critpath.Snapshot
	exem exemplar.Snapshot
	viol uint64
}

// shiftedZNSLog drives E4's ZNS circular log on a small geometry through
// RunMixed, with every timestamp offset by t0: the pre-fill starts at t0,
// then 8 closed-loop writers recycle zones in FIFO order while Poisson reads
// land below the write pointers. armed attaches attribution, the
// critical-path recorder and the exemplar reservoir as E4 does.
func shiftedZNSLog(t *testing.T, seed int64, t0 sim.Time, armed bool) shiftRun {
	t.Helper()
	geom := flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 32, PageSize: 4096}
	dev, err := zns.New(zns.Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var probe *telemetry.Probe
	if armed {
		probe = attrProbe(Config{})
		dev.SetProbe(probe)
		exemplarArm(Config{}, probe, "zns", critpath.PredictOpts{ErasesAreResets: true},
			znsDevSnap(dev, geom, rawReclaim(dev)))
	}
	aud := dev.AttachAuditor()
	nz := dev.NumZones()
	at := t0
	for z := 0; z < nz; z++ {
		for o := int64(0); o < dev.ZonePages(); o++ {
			if _, at, err = dev.Append(at, z, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := workload.NewSource(seed)
	rKeys := workload.NewUniform(src, int64(nz)*dev.ZonePages())
	next, cur := 0, -1
	write := func(t sim.Time) (sim.Time, error) {
		t = sim.Max(t, at)
		if cur < 0 || dev.WP(cur) >= dev.WritableCap(cur) {
			done, err := dev.Reset(t, next)
			if err != nil {
				return t, err
			}
			cur, next, t = next, (next+1)%nz, done
		}
		_, done, err := dev.Append(t, cur, nil)
		return done, err
	}
	read := func(t sim.Time) (sim.Time, error) {
		z, off := dev.ZoneOf(rKeys.Next())
		wp := dev.WP(z)
		if wp == 0 {
			return t, nil
		}
		done, _, err := dev.Read(sim.Max(t, at), dev.LBA(z, off%wp))
		return done, err
	}
	res := RunMixed(MixedCfg{
		Writers: 8, Write: write, ReadRate: 20000, Read: read,
		Start: at, Duration: sim.Second, Warmup: 100 * sim.Millisecond,
		Src: src, Probe: probe,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := aud.Check(); err != nil {
		t.Fatal(err)
	}
	run := shiftRun{res: res}
	if sink := probe.Attribution(); sink != nil {
		run.attr, run.viol = sink.Snapshot(), sink.Violations()
		run.crit = critpath.FromSink(sink).Snapshot()
		run.exem = exemplar.FromSink(sink).Snapshot()
	}
	return run
}

// TestTimeShiftMetamorphic is ROADMAP item 4(b) at the driver level: the
// same drive started at t0 = 0 and at t0 = 2^40 ticks must produce equal
// results, since every delta is equal. A difference names window
// alignment, decimation or overflow that depends on absolute time, in the
// device, the driver, the event loop or the telemetry folds.
func TestTimeShiftMetamorphic(t *testing.T) {
	const shift = sim.Time(1) << 40
	for _, seed := range []int64{42, 7, 13} {
		for _, armed := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/armed=%v", seed, armed), func(t *testing.T) {
				base := shiftedZNSLog(t, seed, 0, armed)
				moved := shiftedZNSLog(t, seed, shift, armed)
				if base.res.WriteOps == 0 || base.res.ReadOps == 0 {
					t.Fatalf("drive measured %d writes and %d reads", base.res.WriteOps, base.res.ReadOps)
				}
				if !reflect.DeepEqual(base.res, moved.res) {
					t.Errorf("MixedResult differs under the shift:\n t0=0:    %+v\n t0=2^40: %+v", base.res, moved.res)
				}
				if !armed {
					return
				}
				if base.attr.Ops[telemetry.OpRead].Count == 0 {
					t.Fatal("armed drive attributed no reads")
				}
				if base.viol != 0 || moved.viol != 0 {
					t.Errorf("attribution violations: %d at t0=0, %d at t0=2^40", base.viol, moved.viol)
				}
				if base.attr != moved.attr {
					t.Errorf("AttrSnapshot differs under the shift:\n t0=0:    %+v\n t0=2^40: %+v", base.attr, moved.attr)
				}
				if !reflect.DeepEqual(base.crit, moved.crit) {
					t.Error("critical-path snapshot differs under the shift")
				}
				if base.exem.IOs != moved.exem.IOs || base.exem.FlagSeen != moved.exem.FlagSeen {
					t.Errorf("exemplar reservoir saw %d IOs (%d flagged) at t0=0, %d (%d) at t0=2^40",
						base.exem.IOs, base.exem.FlagSeen, moved.exem.IOs, moved.exem.FlagSeen)
				}
			})
		}
	}
}
