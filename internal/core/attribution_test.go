package core

import (
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/workload"
)

// foldFunc adapts a function to a telemetry.Fold.
type foldFunc func(r *telemetry.Record)

func (f foldFunc) Fold(r *telemetry.Record) { f(r) }

// checkedProbe returns a Config whose probe's attribution sink verifies, for
// every completed IO, the tentpole invariant: the charged phases sum exactly
// (zero-tick slack) to the end-to-end latency.
func checkedProbe(t *testing.T, seed int64) (Config, *telemetry.AttrSink, *int) {
	t.Helper()
	sink := telemetry.NewAttrSink()
	checked := new(int)
	sink.Folds = []telemetry.Fold{foldFunc(func(r *telemetry.Record) {
		op, total, phases := r.Op, r.Total, r.Phases
		*checked++
		var sum sim.Time
		for _, d := range phases {
			sum += d
		}
		if sum != total {
			t.Errorf("%s IO #%d: phases sum %d != total %d ns (diff %d)",
				op, *checked, sum, total, total-sum)
		}
		if total < 0 {
			t.Errorf("%s IO #%d: negative total %d", op, *checked, total)
		}
	})}
	cfg := Config{Quick: true, Seed: seed, Probe: &telemetry.Probe{Attr: sink}}
	return cfg, sink, checked
}

// TestAttributionInvariantE4 runs both E4 stacks (conventional FTL with
// device GC; ZNS with host-scheduled resets) and asserts the per-IO sum
// invariant for every measured read and write.
func TestAttributionInvariantE4(t *testing.T) {
	cfg, sink, checked := checkedProbe(t, 7)
	if _, err := E4Conventional(cfg); err != nil {
		t.Fatal(err)
	}
	convChecked := *checked
	if convChecked == 0 {
		t.Fatal("conventional run completed no attributed IOs")
	}
	// The conventional stack must have attributed some foreground GC stall —
	// otherwise the decomposition the report prints is vacuous.
	if sink.Snapshot().Ops[telemetry.OpWrite].PhaseSum[telemetry.PhaseGCStall] == 0 {
		t.Error("conventional writes show no gc_stall time")
	}
	zres, err := E4ZNS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *checked == convChecked {
		t.Fatal("zns run completed no attributed IOs")
	}
	if !zres.Device.Audited || zres.Device.AuditViolations != 0 {
		t.Fatalf("zns device audit: audited=%v violations=%d",
			zres.Device.Audited, zres.Device.AuditViolations)
	}
	if sink.Snapshot().Ops[telemetry.OpWrite].PhaseSum[telemetry.PhaseZoneReset] == 0 {
		t.Error("zns writes show no zone_reset time")
	}
	if v := sink.Violations(); v != 0 {
		t.Fatalf("sink recorded %d violations", v)
	}
	t.Logf("E4: %d IOs attributed exactly", *checked)
}

// TestAttributionInvariantE6 covers the host-FTL stack: incremental GC,
// simple-copy relocation, and paced maintenance all run concurrently with
// the measured IOs.
func TestAttributionInvariantE6(t *testing.T) {
	cfg, sink, checked := checkedProbe(t, 11)
	if _, err := E6Conventional(cfg); err != nil {
		t.Fatal(err)
	}
	hres, err := E6HostFTL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hres.Device.Audited || hres.Device.AuditViolations != 0 {
		t.Fatalf("host-FTL device audit: audited=%v violations=%d",
			hres.Device.Audited, hres.Device.AuditViolations)
	}
	if *checked == 0 {
		t.Fatal("no attributed IOs")
	}
	if v := sink.Violations(); v != 0 {
		t.Fatalf("sink recorded %d violations", v)
	}
	t.Logf("E6: %d IOs attributed exactly", *checked)
}

// TestAttributionInvariantFTLChurn drives the E2-style steady-state churn
// directly, bracketing every host write by hand: heavy foreground GC with
// multi-page relocation fan-out is where suspend/resume accounting would
// break first.
func TestAttributionInvariantFTLChurn(t *testing.T) {
	geom := flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 32, PagesPerBlock: 32, PageSize: 4096}
	dev, err := ftl.NewDefault(geom, flash.LatenciesFor(flash.TLC), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewAttrSink()
	var checked, gcStalled int
	sink.Folds = []telemetry.Fold{foldFunc(func(r *telemetry.Record) {
		total, phases := r.Total, r.Phases
		checked++
		var sum sim.Time
		for _, d := range phases {
			sum += d
		}
		if sum != total {
			t.Errorf("write #%d: phases sum %d != total %d ns", checked, sum, total)
		}
		if phases[telemetry.PhaseGCStall] > 0 {
			gcStalled++
		}
	})}
	dev.SetProbe(&telemetry.Probe{Attr: sink})
	var at sim.Time
	src := workload.NewSource(3)
	keys := workload.NewUniform(src, dev.CapacityPages())
	for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
		if at, err = dev.WritePage(at, lpn, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Churn 3x the logical space with per-IO attribution: deep into the
	// sustained-GC regime.
	for i := int64(0); i < dev.CapacityPages()*3; i++ {
		sink.BeginTenant(telemetry.OpWrite, 0, at)
		done, err := dev.WritePage(at, keys.Next(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sink.End(done)
		at = done
	}
	if v := sink.Violations(); v != 0 {
		t.Fatalf("%d violations over %d churn writes", v, checked)
	}
	if gcStalled == 0 {
		t.Fatal("churn never hit a GC stall; test is not exercising fan-out")
	}
	t.Logf("churn: %d writes attributed exactly, %d with gc_stall", checked, gcStalled)
}
