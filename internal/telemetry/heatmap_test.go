package telemetry

import (
	"testing"

	"blockhead/internal/sim"
)

func TestHeatSetRegistrationOrderAndReplace(t *testing.T) {
	h := NewHeatSet()
	h.Register("flash", func(sim.Time) DeviceHeat { return DeviceHeat{Channels: []UnitOcc{{ID: 1}}} })
	h.Register("zns", func(sim.Time) DeviceHeat { return DeviceHeat{} })
	// Re-registering replaces the function but keeps the position — a second
	// experiment stack shadows the first instead of appending a dead device.
	h.Register("flash", func(sim.Time) DeviceHeat { return DeviceHeat{Channels: []UnitOcc{{ID: 2}}} })
	d := h.Dump(3 * sim.Millisecond)
	if d.AtMillis != 3 {
		t.Errorf("AtMillis = %v", d.AtMillis)
	}
	if len(d.Devices) != 2 || d.Devices[0].Name != "flash" || d.Devices[1].Name != "zns" {
		t.Fatalf("devices = %+v", d.Devices)
	}
	if d.Devices[0].Channels[0].ID != 2 {
		t.Error("re-registration did not replace the source")
	}
}

func TestHeatSetNilSafe(t *testing.T) {
	var h *HeatSet
	h.Register("x", func(sim.Time) DeviceHeat { return DeviceHeat{} })
	d := h.Dump(0)
	if d.Devices == nil || len(d.Devices) != 0 {
		t.Fatalf("nil set dump = %+v", d)
	}
	var p *Probe
	if got := p.HeatDump(0); len(got.Devices) != 0 {
		t.Fatal("nil probe HeatDump not empty")
	}
}

func TestHeatCellsU32(t *testing.T) {
	// Small inputs pass through one block per cell.
	cells, stride := HeatCellsU32([]uint32{3, 1, 4})
	if stride != 1 || len(cells) != 3 || cells[2] != 4 {
		t.Fatalf("cells=%v stride=%d", cells, stride)
	}
	// Large inputs downsample to <= maxHeatCells, keeping the per-cell max
	// so an isolated hot block stays visible.
	vals := make([]uint32, 3000)
	vals[2999] = 77
	cells, stride = HeatCellsU32(vals)
	if len(cells) > maxHeatCells || stride != 3 {
		t.Fatalf("len=%d stride=%d", len(cells), stride)
	}
	if cells[len(cells)-1] != 77 {
		t.Error("downsampling lost the hot block")
	}
	if cells, stride = HeatCellsU32(nil); len(cells) != 0 || stride != 1 {
		t.Fatalf("empty input: cells=%v stride=%d", cells, stride)
	}
}
