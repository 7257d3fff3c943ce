package core

import (
	"fmt"
	"reflect"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// logRun is what one drive of the metamorphic tests' ZNS log leaves to
// compare: the driver's result and, when armed, the three telemetry folds'
// snapshots.
type logRun struct {
	res  MixedResult
	attr telemetry.AttrSnapshot
	crit critpath.Snapshot
	exem exemplar.Snapshot
	viol uint64
}

// logCfg is one transformation of that drive.
type logCfg struct {
	seed  int64
	t0    sim.Time // the pre-fill's start
	scale sim.Time // multiplies every flash latency, Duration and Warmup; 0 means 1
	armed bool
	// readers > 0 runs closed-loop readers in place of Poisson reads at
	// 20 000/s, whose float gaps do not scale exactly.
	readers int
}

// znsLogDrive drives E4's ZNS circular log on a small geometry through
// RunMixed: the pre-fill starts at t0, then 8 closed-loop writers recycle
// zones in FIFO order while reads land below the write pointers. armed
// attaches attribution, the critical-path recorder and the exemplar
// reservoir as E4 does.
func znsLogDrive(t *testing.T, c logCfg) logRun {
	t.Helper()
	k := max(c.scale, 1)
	geom := flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 16, PagesPerBlock: 32, PageSize: 4096}
	lat := flash.LatenciesFor(flash.TLC)
	lat.ReadPage, lat.ProgramPage, lat.EraseBlock, lat.XferPage = k*lat.ReadPage, k*lat.ProgramPage, k*lat.EraseBlock, k*lat.XferPage
	dev, err := zns.New(zns.Config{Geom: geom, Lat: lat, ZoneBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var probe *telemetry.Probe
	if c.armed {
		probe = attrProbe(Config{})
		dev.SetProbe(probe)
		exemplarArm(Config{}, probe, "zns", critpath.PredictOpts{ErasesAreResets: true},
			znsDevSnap(dev, geom, rawReclaim(dev)))
	}
	aud := dev.AttachAuditor()
	nz := dev.NumZones()
	at := c.t0
	for z := 0; z < nz; z++ {
		for o := int64(0); o < dev.ZonePages(); o++ {
			if _, at, err = dev.Append(at, z, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := workload.NewSource(c.seed)
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
	cfg := MixedCfg{
		Writers: 8, Write: write, Readers: c.readers, Read: read,
		Start: at, Duration: k * sim.Second, Warmup: k * 100 * sim.Millisecond,
		Src: src, Probe: probe,
	}
	if c.readers == 0 {
		cfg.ReadRate = 20000
	}
	res := RunMixed(cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := aud.Check(); err != nil {
		t.Fatal(err)
	}
	run := logRun{res: res}
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
				base := znsLogDrive(t, logCfg{seed: seed, armed: armed})
				moved := znsLogDrive(t, logCfg{seed: seed, t0: shift, armed: armed})
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

// TestTimeScaleMetamorphic is ROADMAP item 4(a) at the driver level: the
// same drive with every flash latency, Duration and Warmup multiplied by k
// must count the same ops and report every latency percentile and the
// maximum exactly k times larger. Mean is a floor of sum/n, so k·m ≤ Mean′
// < k·m + k. Reads are closed loop: Poisson gaps are float draws and do not
// scale exactly. At k = 4096 the read p50 lies above 2^32 ns, so stats.Dist
// selects its ranks from the wide store end to end.
//
// Both drives are armed, so the critical-path recorder must sample the same
// IOs with every cell exactly k times larger. At k = 4096 the cells of
// 2^32 ns and more go through the reservoir's side list, and since ×4096
// is exact in float64 the what-if engine must predict equal ratios.
func TestTimeScaleMetamorphic(t *testing.T) {
	for _, seed := range []int64{42, 7, 13} {
		base := znsLogDrive(t, logCfg{seed: seed, readers: 4, armed: true})
		if base.res.WriteOps == 0 || base.res.ReadOps == 0 {
			t.Fatalf("seed %d: drive measured %d writes and %d reads", seed, base.res.WriteOps, base.res.ReadOps)
		}
		if len(base.crit.Paths) == 0 {
			t.Fatalf("seed %d: armed drive sampled no critical paths", seed)
		}
		for _, k := range []sim.Time{3, 4096} {
			t.Run(fmt.Sprintf("seed%d/k=%d", seed, k), func(t *testing.T) {
				run := znsLogDrive(t, logCfg{seed: seed, scale: k, readers: 4, armed: true})
				scaled := run.res
				if scaled.WriteOps != base.res.WriteOps || scaled.ReadOps != base.res.ReadOps {
					t.Errorf("ops: %d writes, %d reads at k=1; %d, %d at k=%d",
						base.res.WriteOps, base.res.ReadOps, scaled.WriteOps, scaled.ReadOps, k)
				}
				for _, s := range []struct {
					name         string
					base, scaled stats.Summary
				}{{"write", base.res.WriteLat, scaled.WriteLat}, {"read", base.res.ReadLat, scaled.ReadLat}} {
					b, g := s.base, s.scaled
					if g.Count != b.Count || g.P50 != k*b.P50 || g.P90 != k*b.P90 || g.P99 != k*b.P99 ||
						g.P999 != k*b.P999 || g.Max != k*b.Max || g.Mean < k*b.Mean || g.Mean >= k*b.Mean+k {
						t.Errorf("%s latency does not scale by %d:\n k=1: %+v\n k=%d: %+v", s.name, k, b, k, g)
					}
				}
				if k == 4096 && scaled.ReadLat.P50 < 1<<32 {
					t.Errorf("read p50 %d at k=4096 is below 2^32 ns: the wide store goes untested", scaled.ReadLat.P50)
				}
				if base.viol != 0 || run.viol != 0 {
					t.Errorf("attribution violations: %d at k=1, %d at k=%d", base.viol, run.viol, k)
				}
				wide := checkPathsScale(t, base.crit, run.crit, k)
				if k != 4096 {
					return
				}
				if wide == 0 {
					t.Error("no sampled cell reaches 2^32 ns at k=4096: the side list goes untested")
				}
				opts := critpath.PredictOpts{ErasesAreResets: true, PerTenant: true}
				for _, sc := range critpath.Canonical() {
					b, g := base.crit.Predict(sc, opts), run.crit.Predict(sc, opts)
					if len(b) != len(g) {
						t.Fatalf("%s: %d predictions at k=1, %d at k=%d", sc.Name, len(b), len(g), k)
					}
					for i := range b {
						if b[i].Op != g[i].Op || b[i].Tenant != g[i].Tenant || b[i].Count != g[i].Count ||
							b[i].MeanRatio != g[i].MeanRatio || b[i].P99Ratio != g[i].P99Ratio || b[i].P999Ratio != g[i].P999Ratio {
							t.Errorf("%s predicts differently at k=%d:\n k=1: %+v\n k=%d: %+v", sc.Name, k, b[i], k, g[i])
						}
					}
				}
			})
		}
	}
}

// checkPathsScale checks that scaled samples the same IOs as base with
// every Total, Path, WaitBy and Comp cell exactly k times larger, and
// returns how many scaled cells reach 2^32 ns.
func checkPathsScale(t *testing.T, base, scaled critpath.Snapshot, k sim.Time) (wide int) {
	t.Helper()
	if base.IOs != scaled.IOs || base.Stride != scaled.Stride || len(base.Paths) != len(scaled.Paths) {
		t.Fatalf("critical paths: %d IOs, stride %d, %d sampled at k=1; %d, %d, %d at k=%d",
			base.IOs, base.Stride, len(base.Paths), scaled.IOs, scaled.Stride, len(scaled.Paths), k)
	}
	for i := range base.Paths {
		b, g := &base.Paths[i], &scaled.Paths[i]
		scale := func(d sim.Time) sim.Time {
			if k*d >= 1<<32 {
				wide++
			}
			return k * d
		}
		want := critpath.PathRec{Op: b.Op, Tenant: b.Tenant, Total: k * b.Total}
		for p := range b.Path {
			want.Path[p] = scale(b.Path[p])
		}
		for w := range b.WaitBy {
			for q := range b.WaitBy[w] {
				want.WaitBy[w][q] = scale(b.WaitBy[w][q])
			}
		}
		for c := range b.Comp {
			for q := range b.Comp[c] {
				want.Comp[c][q] = scale(b.Comp[c][q])
			}
		}
		if *g != want {
			t.Fatalf("sampled path %d does not scale by %d:\n k=1: %+v\n k=%d: %+v", i, k, *b, k, *g)
		}
	}
	return wide
}
