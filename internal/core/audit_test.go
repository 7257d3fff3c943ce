package core

import (
	"io"
	"strings"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// E8 cycles hundreds of zones through open->full->reset under an active-zone
// limit with seven concurrent tenants — the hardest state-machine workout in
// the suite. Both policies must audit clean.
func TestAuditE8BothPolicies(t *testing.T) {
	for _, p := range []ZonePolicy{StaticZones, DynamicZones} {
		res, err := E8Run(p, Config{Quick: true, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Device.Audited {
			t.Fatalf("%v: device state not audited", p)
		}
		if res.Device.AuditViolations != 0 {
			t.Fatalf("%v: %d audit violations", p, res.Device.AuditViolations)
		}
		if res.Device.ZoneMap == "" {
			t.Fatalf("%v: empty zone census", p)
		}
	}
}

// The churn property test: a deterministic random mix of every zone-management
// verb against a raw ZNS device, with the auditor shadowing each transition.
// Run under -race via `make check` (go test -race).
func TestAuditZoneChurnProperty(t *testing.T) {
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 8, PagesPerBlock: 8, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 2, // 16 zones of 16 pages
		MaxActive:  6,
		MaxOpen:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := telemetry.NewProbe()
	probe.FlightRec.DumpTo = io.Discard
	dev.SetProbe(probe)
	aud := dev.AttachAuditor()
	src := workload.NewSource(17)
	var at sim.Time
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	for i := 0; i < iters; i++ {
		z := src.Intn(dev.NumZones())
		switch src.Intn(8) {
		case 0:
			dev.Open(at, z) //nolint:errcheck // limit errors are the workload
		case 1:
			dev.Close(at, z) //nolint:errcheck
		case 2:
			dev.Finish(at, z) //nolint:errcheck
		case 3:
			if done, err := dev.Reset(at, z); err == nil {
				at = done
			}
		default: // appends dominate, like a real log
			if _, done, err := dev.Append(at, z, nil); err == nil {
				at = done
			}
		}
	}
	if v := aud.Violations(); v != 0 {
		t.Fatalf("churn produced %d auditor violations", v)
	}
	if err := aud.Check(); err != nil {
		t.Fatal(err)
	}
	if probe.FlightRec.Total() == 0 {
		t.Fatal("churn recorded no flight events")
	}
}

// The same property through the host FTL: its allocation, stream, and
// reclamation logic must drive the device through legal transitions only.
func TestAuditHostFTLChurn(t *testing.T) {
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 16, PagesPerBlock: 16, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := hostftl.New(dev, hostftl.Config{
		OPFraction:     0.20,
		Streams:        2,
		ZonesPerStream: 2,
		UseSimpleCopy:  true,
		GCMode:         hostftl.GCIncremental,
		GCChunkPages:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := telemetry.NewProbe()
	probe.FlightRec.DumpTo = io.Discard
	f.SetProbe(probe)
	aud := dev.AttachAuditor()
	src := workload.NewSource(23)
	keys := workload.NewUniform(src, f.CapacityPages())
	var at sim.Time
	for lpn := int64(0); lpn < f.CapacityPages(); lpn++ {
		if at, err = f.Write(at, lpn, nil); err != nil {
			t.Fatal(err)
		}
	}
	churn := f.CapacityPages() * 3
	if testing.Short() {
		churn = f.CapacityPages()
	}
	for i := int64(0); i < churn; i++ {
		if at, err = f.WriteStream(at, keys.Next(), int(i%2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if v := aud.Violations(); v != 0 {
		t.Fatalf("host-FTL churn produced %d auditor violations", v)
	}
	if err := aud.Check(); err != nil {
		t.Fatal(err)
	}
}

// The report renders wear, zone census, and audit verdicts for each stack.
func TestReportDeviceStateSections(t *testing.T) {
	var r Report
	r.AddDeviceState(DeviceState{
		Name: "stack-a",
		Wear: flash.WearSummary{Blocks: 8, TotalErases: 12, MaxErase: 3, MeanErase: 1.5, Spread: 2, Skew: 2},
	})
	r.AddDeviceState(DeviceState{
		Name: "stack-b", ZoneMap: "empty=3 open=1 closed=0 full=4 read-only=0 offline=0",
		Audited: true,
	})
	r.AddDeviceState(DeviceState{Name: "stack-c", Audited: true, AuditViolations: 2})
	out := r.Format()
	for _, want := range []string{
		"device state — stack-a: wear blocks=8",
		"zone map: empty=3 open=1",
		"zone state-machine audit: clean",
		"WARNING: 2 zone state-machine audit violations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
