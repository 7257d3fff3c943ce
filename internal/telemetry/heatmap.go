package telemetry

import "blockhead/internal/sim"

// maxHeatCells bounds the per-block arrays in a heatmap dump so the JSON
// payload stays small for arbitrarily large simulated devices: above this
// many blocks, adjacent blocks are merged into cells.
const maxHeatCells = 1024

// HeatFunc produces one device's spatial snapshot at virtual time at.
// It runs on the simulation thread (dump paths may allocate).
type HeatFunc func(at sim.Time) DeviceHeat

// HeatSet is a registry of heatmap sources. Device models register a
// HeatFunc under a stable name in SetProbe; Dump snapshots all of them.
// Registering an existing name replaces the function (keeping its position),
// so successive experiment stacks sharing one probe shadow each other
// instead of accumulating dead devices. The nil *HeatSet no-ops.
type HeatSet struct {
	names []string
	fns   map[string]HeatFunc
}

// NewHeatSet returns an empty heatmap-source registry.
func NewHeatSet() *HeatSet {
	return &HeatSet{fns: make(map[string]HeatFunc)}
}

// Register adds (or replaces) the source for name. No-op on a nil set.
func (h *HeatSet) Register(name string, fn HeatFunc) {
	if h == nil || fn == nil {
		return
	}
	if _, ok := h.fns[name]; !ok {
		h.names = append(h.names, name)
	}
	h.fns[name] = fn
}

// Dump snapshots every registered source, in registration order. Safe on a
// nil set (empty dump).
func (h *HeatSet) Dump(at sim.Time) HeatmapDump {
	if h == nil {
		return HeatmapDump{AtMillis: at.Millis(), Devices: []DeviceHeat{}}
	}
	d := HeatmapDump{AtMillis: at.Millis(), Devices: []DeviceHeat{}}
	for _, name := range h.names {
		dh := h.fns[name](at)
		dh.Name = name
		d.Devices = append(d.Devices, dh)
	}
	return d
}

// HeatmapDump is the JSON shape of a spatial snapshot (zonectl inspect -json).
type HeatmapDump struct {
	AtMillis float64      `json:"at_ms"`
	Devices  []DeviceHeat `json:"devices"`
}

// DeviceHeat is one device's spatial snapshot. Every section is optional:
// flash fills Wear/Channels/LUNs, zns fills Zones.
type DeviceHeat struct {
	Name     string     `json:"name"`
	Wear     *WearHeat  `json:"wear,omitempty"`
	Channels []UnitOcc  `json:"channels,omitempty"`
	LUNs     []UnitOcc  `json:"luns,omitempty"`
	Zones    []ZoneHeat `json:"zones,omitempty"`
}

// WearHeat summarizes per-block erase wear: aggregate statistics, a bucketed
// histogram, and a downsampled per-cell grid (max erase count within each
// cell of CellBlocks adjacent blocks).
type WearHeat struct {
	Blocks     int          `json:"blocks"`
	BadBlocks  int          `json:"bad_blocks"`
	MaxErase   uint32       `json:"max_erase"`
	MeanErase  float64      `json:"mean_erase"`
	Spread     uint32       `json:"spread"`
	Skew       float64      `json:"skew"`
	Hist       []WearBucket `json:"hist"`
	Cells      []uint32     `json:"cells"`
	CellBlocks int          `json:"cell_blocks"`
}

// WearBucket is one erase-count histogram bucket: Blocks blocks have an
// erase count in [Lo, Hi].
type WearBucket struct {
	Lo     uint32 `json:"lo"`
	Hi     uint32 `json:"hi"`
	Blocks int    `json:"blocks"`
}

// UnitOcc is the busy-time occupancy of one hardware unit (channel or LUN)
// since the start of the run: BusyFrac = busy time / elapsed virtual time.
type UnitOcc struct {
	ID       int     `json:"id"`
	BusyFrac float64 `json:"busy_frac"`
}

// ZoneHeat is one zone's snapshot. Valid is -1: the raw zns device does not
// track which written pages are still live.
type ZoneHeat struct {
	Zone  int     `json:"zone"`
	State string  `json:"state"`
	WP    int64   `json:"wp"`
	Cap   int64   `json:"cap"`
	Valid float64 `json:"valid"`
}

// HeatCellsU32 downsamples one value per block to at most maxHeatCells
// cells, keeping the maximum within each cell (hot spots stay visible).
// Returns the cells and how many blocks each cell covers.
func HeatCellsU32(vals []uint32) ([]uint32, int) {
	stride := (len(vals) + maxHeatCells - 1) / maxHeatCells
	if stride < 1 {
		stride = 1
	}
	cells := make([]uint32, 0, (len(vals)+stride-1)/stride)
	for i := 0; i < len(vals); i += stride {
		max := vals[i]
		for _, v := range vals[i+1 : min(i+stride, len(vals))] {
			if v > max {
				max = v
			}
		}
		cells = append(cells, max)
	}
	return cells, stride
}
