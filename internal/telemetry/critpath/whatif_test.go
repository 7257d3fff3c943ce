package critpath

import (
	"math"
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario("nand_program:0.5,zone_reset:0")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "program", sc.Factor(telemetry.PhaseNANDProgram), 0.5)
	approx(t, "reset", sc.Factor(telemetry.PhaseZoneReset), 0)
	approx(t, "unscaled", sc.Factor(telemetry.PhaseNANDRead), 1)
	for _, bad := range []string{"", "bogus:1", "nand_read", "nand_read:-1", "nand_read:x", "nand_read:NaN"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Fatalf("ParseScenario(%q) accepted", bad)
		}
	}
}

// FuzzParseScenario: ParseScenario reads the -whatif flag, so it must not
// panic on any input, and every scenario it accepts must scale known phases
// by factors in [0, 1e6].
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{"nand_program:0.5", "zone_reset:0,wp_serial:0", " lun_wait:2 ,",
		"zone_reset:NaN", "zone_reset:Inf", "nand_read:1e7", "nand_read:-0", "warp:1", ":", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := ParseScenario(spec)
		if err != nil {
			return
		}
		if len(sc.Scales) == 0 {
			t.Fatalf("ParseScenario(%q) accepted a scenario with no terms", spec)
		}
		for _, s := range sc.Scales {
			if s.Phase < 0 || int(s.Phase) >= telemetry.NumPhases {
				t.Fatalf("ParseScenario(%q): unknown phase %d", spec, s.Phase)
			}
			if !(s.Factor >= 0 && s.Factor <= 1e6) {
				t.Fatalf("ParseScenario(%q): factor %v for %s outside [0, 1e6]", spec, s.Factor, s.Phase)
			}
		}
	})
}

// TestReplayDirect: service phases scale by their own factor.
func TestReplayDirect(t *testing.T) {
	rec := PathRec{Total: 760 * us}
	rec.Path[telemetry.PhaseNANDProgram] = 700 * us
	rec.Path[telemetry.PhaseNANDRead] = 60 * us
	got := Replay(&rec, MustScenario("nand_program:0.5"), PredictOpts{})
	approx(t, "replay", got, float64(410*us))
}

// TestReplayWaitBind: a wait bound to a program scales with the program; the
// unbound remainder scales only by its own (unscaled) factor.
func TestReplayWaitBind(t *testing.T) {
	var rec PathRec
	rec.Path[telemetry.PhaseLUNWait] = 100 * us
	rec.WaitBy[telemetry.WaitLUN][telemetry.BindProgram] = 80 * us // 20us unbound
	rec.Path[telemetry.PhaseNANDProgram] = 700 * us
	rec.Total = 800 * us
	got := Replay(&rec, MustScenario("nand_program:0.5"), PredictOpts{})
	// 80*0.5 + 20 + 700*0.5 = 410us
	approx(t, "replay", got, float64(410*us))
	// Scaling the wait phase itself compounds with the bind.
	got = Replay(&rec, MustScenario("lun_wait:0"), PredictOpts{})
	approx(t, "wait scaled", got, float64(700*us))
}

// TestReplayComposite: a composite scales by the blend of its recorded
// composition.
func TestReplayComposite(t *testing.T) {
	var rec PathRec
	rec.Path[telemetry.PhaseGCStall] = 1000 * us
	rec.Comp[telemetry.CompGCStall][telemetry.PhaseNANDProgram] = 600 * us
	rec.Comp[telemetry.CompGCStall][telemetry.PhaseNANDRead] = 200 * us
	rec.Total = 1000 * us
	got := Replay(&rec, MustScenario("nand_program:0.5"), PredictOpts{})
	// blend = (600*0.5 + 200*1)/800 = 0.625
	approx(t, "replay", got, float64(625*us))
	// An empty-composition composite scales only by its own factor.
	var bare PathRec
	bare.Path[telemetry.PhaseGCStall] = 1000 * us
	bare.Total = 1000 * us
	approx(t, "bare", Replay(&bare, MustScenario("nand_program:0.5"), PredictOpts{}), float64(1000*us))
	approx(t, "own factor", Replay(&bare, MustScenario("gc_stall:0"), PredictOpts{}), 0)
}

// TestReplayCompositeWait: waits inside a composite track the composite's
// own service blend.
func TestReplayCompositeWait(t *testing.T) {
	var rec PathRec
	rec.Path[telemetry.PhaseGCStall] = 1000 * us
	rec.Comp[telemetry.CompGCStall][telemetry.PhaseNANDProgram] = 500 * us
	rec.Comp[telemetry.CompGCStall][telemetry.PhaseLUNWait] = 500 * us
	rec.Total = 1000 * us
	got := Replay(&rec, MustScenario("nand_program:0.5"), PredictOpts{})
	// sblend = 0.5; comp blend = (500*0.5 + 500*(1*0.5))/1000 = 0.5
	approx(t, "replay", got, float64(500*us))
}

// TestReplayErasesAreResets: on zoned stacks a zone_reset scaling reaches
// erase-bound waits and erase constituents.
func TestReplayErasesAreResets(t *testing.T) {
	var rec PathRec
	rec.Path[telemetry.PhaseLUNWait] = 100 * us
	rec.WaitBy[telemetry.WaitLUN][telemetry.BindErase] = 100 * us
	rec.Path[telemetry.PhaseZoneReset] = 4200 * us
	rec.Comp[telemetry.CompZoneReset][telemetry.PhaseNANDErase] = 4200 * us
	rec.Total = 4300 * us
	sc := MustScenario("zone_reset:0")
	got := Replay(&rec, sc, PredictOpts{ErasesAreResets: true})
	approx(t, "zoned", got, 0)
	// On a conventional stack the same scenario leaves erase-bound waits
	// alone (the erase is GC, not a reset).
	got = Replay(&rec, sc, PredictOpts{})
	approx(t, "conventional", got, float64(100*us))
}

// TestPredictSummaries checks the distribution summary: exact nearest-rank
// percentiles, per-op grouping, per-tenant entries, ratio guards.
func TestPredictSummaries(t *testing.T) {
	snap := Snapshot{}
	for i := 0; i < 100; i++ {
		var rec PathRec
		rec.Op = telemetry.OpRead
		rec.Tenant = telemetry.TenantID(i % 2)
		rec.Path[telemetry.PhaseNANDRead] = sim.Time(i+1) * us
		rec.Total = sim.Time(i+1) * us
		snap.Paths = append(snap.Paths, rec)
		snap.Tenants[rec.Tenant].Count[telemetry.OpRead]++
	}
	preds := snap.Predict(MustScenario("nand_read:0.5"), PredictOpts{PerTenant: true})
	if len(preds) != 3 {
		t.Fatalf("predictions: %d, want 3 (all + 2 tenants)", len(preds))
	}
	all := preds[0]
	if all.Tenant != -1 || all.Count != 100 {
		t.Fatalf("all-tenants entry: %+v", all)
	}
	approx(t, "base mean", all.BaseMean, 50.5)
	approx(t, "base p99", all.BaseP99, 99)
	approx(t, "pred mean", all.Mean, 25.25)
	approx(t, "mean ratio", all.MeanRatio, 0.5)
	approx(t, "p99 ratio", all.P99Ratio, 0.5)
}
