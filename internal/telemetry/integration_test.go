// Integration: attach one probe across a conventional FTL run and a ZNS
// run (the way cmd/znsbench shares a probe across experiments), then parse
// the Chrome trace export and the metrics dump the way a trace viewer
// would. Lives in an external test package because the device models import
// telemetry.
package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func runProbedWorkloads(t *testing.T) *telemetry.Probe {
	t.Helper()
	probe := telemetry.NewProbe(telemetry.Options{TraceEvents: 1 << 14})

	// Conventional FTL: fill, then churn enough to force garbage collection,
	// so ftl/write_amp climbs above 1 and GC spans appear.
	fdev, err := ftl.New(ftl.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 16, PagesPerBlock: 32, PageSize: 4096},
		Lat:             flash.LatenciesFor(flash.TLC),
		ReserveFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fdev.SetProbe(probe)
	var at sim.Time
	for lpn := int64(0); lpn < fdev.CapacityPages(); lpn++ {
		if at, err = fdev.WritePage(at, lpn, nil); err != nil {
			t.Fatal(err)
		}
	}
	keys := workload.NewUniform(workload.NewSource(1), fdev.CapacityPages())
	for i := int64(0); i < 2*fdev.CapacityPages(); i++ {
		if at, err = fdev.WritePage(at, keys.Next(), nil); err != nil {
			t.Fatal(err)
		}
	}

	// ZNS device on its own timeline (virtual time restarts at 0, as between
	// znsbench experiments): open, append, finish, and reset several zones so
	// per-zone tracks and the zone counters get data.
	zdev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerLUN: 4, PagesPerBlock: 32, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 1,
		MaxActive:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	zdev.SetProbe(probe)
	var zat sim.Time
	for z := 0; z < 4; z++ {
		if err := zdev.Open(zat, z); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			_, done, err := zdev.Append(zat, z, nil)
			if err != nil {
				t.Fatal(err)
			}
			zat = done
		}
		if err := zdev.Finish(zat, z); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := zdev.Reset(zat, 0); err != nil {
		t.Fatal(err)
	} else {
		zat = done
	}
	return probe
}

// chromeDoc is the viewer-side shape of the export.
type chromeDoc struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		PID  int32                  `json:"pid"`
		TID  int32                  `json:"tid"`
		TS   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		S    string                 `json:"s"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTraceHasPerUnitTracks(t *testing.T) {
	probe := runProbedWorkloads(t)
	var buf bytes.Buffer
	if err := probe.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}

	procNames := map[int32]string{}
	tracks := map[int32]map[int32]bool{} // pid -> set of tids with real events
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procNames[e.PID] = e.Args["name"].(string)
			}
		case "X", "i":
			if tracks[e.PID] == nil {
				tracks[e.PID] = map[int32]bool{}
			}
			tracks[e.PID][e.TID] = true
			if e.Ph == "X" && e.Dur < 0 {
				t.Errorf("span with negative duration: %+v", e)
			}
			if e.Ph == "i" && e.S != "t" {
				t.Errorf("instant without scope: %+v", e)
			}
		}
	}

	for _, pid := range []int32{telemetry.ProcFlashChan, telemetry.ProcFlashLUN,
		telemetry.ProcFTL, telemetry.ProcZone} {
		if procNames[pid] == "" {
			t.Errorf("process %d has no process_name metadata", pid)
		}
	}
	// Per-channel and per-die (LUN) tracks: the FTL geometry has 2 channels
	// and 4 LUNs, the ZNS geometry 4 channels; multiple distinct tids must
	// carry events.
	if len(tracks[telemetry.ProcFlashChan]) < 2 {
		t.Errorf("want >=2 channel tracks, got %d", len(tracks[telemetry.ProcFlashChan]))
	}
	if len(tracks[telemetry.ProcFlashLUN]) < 2 {
		t.Errorf("want >=2 LUN (die) tracks, got %d", len(tracks[telemetry.ProcFlashLUN]))
	}
	// Per-zone tracks: we touched 4 zones.
	if len(tracks[telemetry.ProcZone]) < 4 {
		t.Errorf("want >=4 zone tracks, got %d", len(tracks[telemetry.ProcZone]))
	}
	// The churn phase over a 10%-reserve device must show GC activity.
	if len(tracks[telemetry.ProcFTL]) == 0 {
		t.Error("no FTL GC events in trace")
	}
}

// TestMetricsDumpCoversBothStacks: one probe shared across the two runs
// exports both stacks' counters and gauges in one dump.
func TestMetricsDumpCoversBothStacks(t *testing.T) {
	probe := runProbedWorkloads(t)
	var buf bytes.Buffer
	if err := probe.Metrics.WriteJSON(&buf, sim.Second); err != nil {
		t.Fatal(err)
	}
	var d telemetry.MetricsDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}

	if d.Counters["flash/program_pages"] == 0 {
		t.Error("flash/program_pages counter is zero")
	}
	if d.Counters["ftl/gc/copy_pages"] == 0 {
		t.Error("churn over a 10%-reserve FTL did no GC copies")
	}
	if d.Counters["zns/zone/resets"] != 1 {
		t.Errorf("zns/zone/resets = %d, want 1", d.Counters["zns/zone/resets"])
	}
	if got := d.Counters["zns/zone/state_transitions{to=full}"]; got != 4 {
		t.Errorf("transitions to full = %d, want 4 (finished zones)", got)
	}
	if d.Gauges["ftl/write_amp"] <= 1.0 {
		t.Errorf("final ftl/write_amp = %v, want > 1 after churn", d.Gauges["ftl/write_amp"])
	}
	if _, ok := d.Gauges["zns/active_zones"]; !ok {
		t.Error("zns/active_zones gauge missing from the shared dump")
	}
}
