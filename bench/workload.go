package main

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
)

const defaultGeometry = "femu256"

// geometries the device workloads can run on. femu256 keeps the FEMU/CCZNS
// channel, LUN and block counts (what O(blocks) and per-LUN costs see) and a
// real drive's blocks : pages-per-block ratio of 16, but shrinks the block
// from FEMU's 2 048 pages so set-up and several measured slices fit a run.
// femu is the exact FEMU point, for offline scaling runs only.
var geometries = map[string]flash.Geometry{
	"femu256": {Channels: 8, DiesPerChan: 8, PlanesPerDie: 1, BlocksPerLUN: 64, PagesPerBlock: 256, PageSize: 4096},
	"femu":    {Channels: 8, DiesPerChan: 8, PlanesPerDie: 1, BlocksPerLUN: 64, PagesPerBlock: 2048, PageSize: 4096},
	"tiny":    {Channels: 4, DiesPerChan: 2, PlanesPerDie: 1, BlocksPerLUN: 16, PagesPerBlock: 32, PageSize: 4096},
}

// scale fixes every size a run depends on. Sizes are op counts, never
// durations: a slice is the same simulated work on both sides of any
// comparison, and only how many slices fit in --seconds varies with the host.
type scale struct {
	name     string // "full" or "tiny"
	geomName string
	geom     flash.Geometry

	setupRepeats int // set-ups per run; setup_s is their median

	convAge   float64 // conv_gc: share of capacity overwritten while aging
	znsChurn  float64 // zns_host: likewise
	convPairs int     // conv_gc: write+read pairs per slice
	znsPairs  int     // zns_host: likewise

	kvBlocks int // kv_lsm: blocks per LUN (E5 has 112)
	kvKeys   int // kv_lsm: keys (E5 has 12 000)
	kvPuts   int // kv_lsm: overwrites per backend per slice

	mixedWarm  sim.Time // mixed_rw*: virtual time driven during set-up
	mixedSlice sim.Time // mixed_rw*: virtual time per slice
	mixedReads float64  // mixed_rw*: open-loop reads per virtual second

	campaignQuick bool     // campaign: run experiments at Quick size
	campaignIDs   []string // campaign: subset to run; nil = all registered

	ladderOps int // ops per ladder rung

	// nominal op counts wall_s is quoted for: the issue's workload sizes.
	nominal map[string]float64
}

func scaleFor(name, geomName string) (scale, error) {
	g, ok := geometries[geomName]
	if !ok {
		return scale{}, fmt.Errorf("unknown geometry %q (have femu256, femu, tiny)", geomName)
	}
	pages := float64(g.TotalPages())
	switch name {
	case "full":
		return scale{
			name: name, geomName: geomName, geom: g,
			setupRepeats: 3,
			convAge:      0.25, znsChurn: 1.5,
			convPairs: 32768, znsPairs: 131072,
			kvBlocks: 896, kvKeys: 96000, kvPuts: 8000,
			mixedWarm: 20 * sim.Second, mixedSlice: 5 * sim.Second, mixedReads: 60000,
			ladderOps: 200000,
			nominal: map[string]float64{
				"campaign": 25, "conv_gc": 2 * 0.9 * pages, "zns_host": 16 * 0.93 * pages,
				"kv_lsm": 580000, "mixed_rw": 20e6, "mixed_rw_armed": 20e6,
			},
		}, nil
	case "tiny":
		return scale{
			name: name, geomName: geomName, geom: g,
			setupRepeats: 2,
			convAge:      0.25, znsChurn: 0.5,
			convPairs: 1024, znsPairs: 1024,
			kvBlocks: 56, kvKeys: 3000, kvPuts: 200,
			mixedWarm: 20 * sim.Millisecond, mixedSlice: 20 * sim.Millisecond, mixedReads: 20000,
			campaignQuick: true, campaignIDs: []string{"E1", "E3", "E11"},
			ladderOps: 2000,
			nominal: map[string]float64{
				"campaign": 3, "conv_gc": pages, "zns_host": pages,
				"kv_lsm": 1000, "mixed_rw": 10000, "mixed_rw_armed": 10000,
			},
		}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (have full, tiny)", name)
}

// sliceOut is one measured slice: simulated host operations attempted and
// failed, and the host nanoseconds the timed region took.
type sliceOut struct {
	ops, failed uint64
	ns          int64
}

// layerCounts are the counts taken at the layer boundaries, read from the
// layers' public accessors before and after each slice.
type layerCounts [numCounts]uint64

const (
	cWrites = iota // host writes (pages or puts)
	cReads         // host reads (pages or gets)
	cEvents        // sim.Loop events: one per op under RunMixed
	cFlashPrograms
	cFlashReads
	cFlashErases
	cFTLGCRuns
	cFTLGCCopies
	cFTLHostWrites
	cZNSAppends
	cZNSResets
	cHostGCResets
	cHostWrites        // host writes into hostftl
	cHostFlashPrograms // flash programs under hostftl, for its write amp
	cZKVFlushes
	cZKVCompactions
	cZKVStoredBytes // flushed + compaction-written bytes
	cZKVUserBytes
	numCounts
)

func (a layerCounts) sub(b layerCounts) layerCounts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a *layerCounts) add(b layerCounts) {
	for i := range a {
		a[i] += b[i]
	}
}

func (a *layerCounts) addFlash(n flash.OpCounts) {
	a[cFlashPrograms] += n.Programs
	a[cFlashReads] += n.Reads
	a[cFlashErases] += n.Erases
}

// traced is what the traced slices of a run add up to: their host time,
// the span totals by kind, and the layer counts over the same slices.
type traced struct {
	ns     int64
	acc    [numKinds]accum
	counts layerCounts
}

// instance is one constructed workload: devices built, prefilled and aged.
type instance interface {
	// slice runs the next fixed-op slice. Inputs are generated before the
	// timed region starts; spans go to tr when it is on.
	slice(tr *tracer) sliceOut
	// stats reports the pinned simulated statistics as they stand.
	model() modelStats
	// counts reads the layer counters as they stand.
	counts() layerCounts
	// layers folds a traced run into this workload's per-layer metrics:
	// self time is a span's duration minus what its children cover, and
	// where the benchmark cannot sit between two layers the child's time is
	// count x rung from the ladder.
	layers(ld ladder, t traced, m metricSet)
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name  string
	why   string
	setup func(sc scale, seed int64) (instance, error)
	// repeatable marks a workload whose every slice is the same simulated
	// work from scratch, so each must reproduce the first one's stats.
	repeatable bool
	// loopDepth is the event-queue depth its drive keeps, which the sim
	// rung reproduces; direct-call workloads get the smallest.
	loopDepth int
}

var workloads = []workloadDef{
	{name: "campaign", setup: newCampaign, repeatable: true, loopDepth: 3,
		why: "what users run: every registered experiment and its report, in process; every layer contributes"},
	{name: "conv_gc", setup: newConvGC, loopDepth: 3,
		why: "conventional FTL in GC steady state at 4096 blocks by direct calls; ftl victim selection and relocation do the work"},
	{name: "zns_host", setup: newZNSHost, loopDepth: 3,
		why: "host FTL over ZNS on the same LPN stream; hostftl+zns+flash work and ftl does none, so it bypasses any ftl change"},
	{name: "kv_lsm", setup: newKVLSM, loopDepth: 3, // one writer, two readers
		why: "LSM store over both E5 backends with readers beside the writer; zkv merge and table build do most of the work"},
	{name: "mixed_rw", setup: newMixedNil, loopDepth: mixedWriters + 1,
		why: "ZNS circular log under core.RunMixed with a nil probe; sim.Loop, the core driver, Poisson arrivals and stats dominate"},
	{name: "mixed_rw_armed", setup: newMixedArmed, loopDepth: mixedWriters + 1,
		why: "the same drive with telemetry armed as core's attrProbe does; the difference from mixed_rw is the telemetry layer"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
