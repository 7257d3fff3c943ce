package core

import (
	"fmt"
	"strings"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/zns"
)

// This file wires tail-exemplar capture and per-IO forensics into the
// experiment harness: the per-run session that scopes measured-IO sequence
// numbers, per-stack arming of the exemplar reservoir (or the -explain
// narrator), the "slowest IOs" report section (filled from a measured
// window by Report.addWindow, window.go), and Explain — the
// deterministic replay behind `znsbench -explain <exp>:<seq>`.

// session is per-run state shared across an experiment's device stacks:
// the attribution sink that numbers measured IOs (sequence numbers are the
// replayable identity `-explain <exp>:<seq>` resolves) and, in explain
// mode, the narrator that records the target IO tick by tick. register
// installs a fresh session for every Run call; Explain provides its own so
// it can read the narrator back after the run.
type session struct {
	sink     *telemetry.AttrSink
	narrator *exemplar.Narrator
}

func newSession() *session { return &session{} }

// exemplarArm points the per-IO forensics layers at one stack's device
// state. Normal runs give the reservoir attached to the probe's sink its
// device-snapshot source; explain runs arm the narrator with the stack
// label, the stack's what-if replay model, the snapshot source, and the
// sink's tenant labeler instead. Experiments call it once per stack, right
// after building the stack's devices.
func exemplarArm(cfg Config, probe *telemetry.Probe, stack string, opts critpath.PredictOpts, snap exemplar.SnapFunc) {
	sink := probe.Attribution()
	if cfg.session != nil && cfg.session.narrator != nil {
		cfg.session.narrator.Arm(stack, opts, snap, sink.TenantName)
		return
	}
	exemplar.FromSink(sink).SetSnap(snap)
}

// convDevSnap is a conventional (device-FTL) stack's device-snapshot
// source: channel/LUN occupancy from the flash layer, GC progress and the
// free-block pool from the FTL.
func convDevSnap(dev *ftl.Device, geom flash.Geometry) exemplar.SnapFunc {
	fl := dev.Flash()
	return func(done sim.Time, s *exemplar.DevSnap) {
		s.BusyLUNs, s.TotalLUNs = int32(fl.BusyLUNs(done)), int32(geom.LUNs())
		s.BusyChans, s.TotalChans = int32(fl.BusyChans(done)), int32(geom.Channels)
		s.GCRuns = dev.GCRuns()
		s.GCActive = dev.LastGCStall() > 0
		s.Free = int64(dev.FreeBlocks())
	}
}

// znsDevSnap is a zoned stack's device-snapshot source: zone-state census
// and the busiest open zone's write pointer from the ZNS device,
// channel/LUN occupancy from the flash layer. reclaim fills the
// reclaim-state fields (host-FTL pool, or raw-device resets).
func znsDevSnap(dev *zns.Device, geom flash.Geometry, reclaim func(*exemplar.DevSnap)) exemplar.SnapFunc {
	fl := dev.Flash()
	return func(done sim.Time, s *exemplar.DevSnap) {
		s.Zoned = true
		c := dev.StateCensus()
		for i := 0; i < exemplar.NumZoneStates && i < len(c); i++ {
			s.ZoneCount[i] = int32(c[i])
		}
		s.HotZone = -1
		for z := 0; z < dev.NumZones(); z++ {
			if dev.State(z) == zns.Open && (s.HotZone < 0 || dev.WP(z) > s.HotWP) {
				s.HotZone, s.HotWP = int32(z), dev.WP(z)
			}
		}
		s.BusyLUNs, s.TotalLUNs = int32(fl.BusyLUNs(done)), int32(geom.LUNs())
		s.BusyChans, s.TotalChans = int32(fl.BusyChans(done)), int32(geom.Channels)
		reclaim(s)
	}
}

// hostReclaim reports the host FTL's reclamation state into a zoned
// snapshot: recycled zones, whether the last write stalled on reclamation,
// and the free-zone pool.
func hostReclaim(f *hostftl.FTL) func(*exemplar.DevSnap) {
	return func(s *exemplar.DevSnap) {
		s.GCRuns = f.GCResets()
		s.GCActive = f.LastStall() > 0
		s.Free = int64(f.FreeZones())
	}
}

// rawReclaim reports a raw ZNS device's reclamation state: host-scheduled
// resets are the only reclamation, and the empty-zone census is the free
// pool (ZoneCount is already filled when reclaim runs).
func rawReclaim(dev *zns.Device) func(*exemplar.DevSnap) {
	return func(s *exemplar.DevSnap) {
		s.GCRuns = dev.Resets()
		s.Free = int64(s.ZoneCount[int(zns.Empty)])
	}
}

// ExemplarSection is one configuration's "slowest IOs" block: the drained
// reservoir snapshot over the measured window, the stack's replay-model
// options for per-exemplar counterfactuals, the run's seed (for the
// -explain hint), and the tenant labels captured at drain time.
type ExemplarSection struct {
	Name  string
	ID    string
	Seed  int64
	Quick bool
	Snap  exemplar.Snapshot
	Opts  critpath.PredictOpts
	Names [telemetry.MaxTenants]string
}

// Label renders a tenant for the section ("sys"/"t<i>" unless named).
func (es ExemplarSection) Label(t telemetry.TenantID) string {
	if t >= 0 && int(t) < len(es.Names) && es.Names[t] != "" {
		return es.Names[t]
	}
	if t == 0 {
		return "sys"
	}
	return fmt.Sprintf("t%d", t)
}

// exemplarShow bounds the merged worst-IO rows a section renders (the
// bench JSON summarizes each tenant's full worst-K).
const exemplarShow = 5

// phaseSum folds an exemplar's timeline; the attribution invariant says it
// equals Total exactly, and the section prints the verdict.
func phaseSum(e exemplar.Exemplar) sim.Time {
	var sum sim.Time
	for p := 0; p < telemetry.NumPhases; p++ {
		sum += e.Phases[p]
	}
	return sum
}

// formatExemplarSection renders one configuration's slowest-IOs block: the
// capture census with the exact-sum verdict, the overall worst rows (phase
// timeline, blame, queued-behind, device snapshot, best counterfactual),
// the always-kept flagged ring, and the -explain replay hint.
func formatExemplarSection(b *strings.Builder, es ExemplarSection) {
	fmt.Fprintf(b, "slowest IOs — %s:\n", es.Name)
	exact := 0
	broken := 0
	check := func(e exemplar.Exemplar) {
		if phaseSum(e) == e.Total {
			exact++
		} else {
			broken++
		}
	}
	top := es.Snap.TopK(exemplarShow)
	for _, e := range top {
		check(e)
	}
	for _, e := range es.Snap.Flagged {
		check(e)
	}
	if broken == 0 {
		fmt.Fprintf(b, "  captured %d of %d IOs (worst-%d per tenant; %d flagged); phase sums exact for all %d listed\n",
			es.Snap.Captured(), es.Snap.IOs, es.Snap.K, es.Snap.FlagSeen, exact)
	} else {
		fmt.Fprintf(b, "  WARNING: %d of %d listed exemplars have phase timelines that do not sum to their latency\n",
			broken, exact+broken)
	}
	for i, e := range top {
		formatExemplarRow(b, es, i+1, e)
	}
	if len(es.Snap.Flagged) > 0 {
		fmt.Fprintf(b, "  flagged (always kept):\n")
		for i, e := range es.Snap.Flagged {
			formatExemplarRow(b, es, i+1, e)
		}
	}
	if len(top) > 0 {
		// Sequence numbers are only meaningful under the run shape that
		// produced them, so the hint reproduces -quick too.
		quick := ""
		if es.Quick {
			quick = "-quick "
		}
		fmt.Fprintf(b, "  forensics: znsbench %s-run %s -seed %d -explain %s:%d\n",
			quick, es.ID, es.Seed, es.ID, top[0].Seq)
	}
}

// formatExemplarRow renders one exemplar: identity line, then indented
// phase/blame/queued-behind/device/what-if detail lines (empty ones
// omitted).
func formatExemplarRow(b *strings.Builder, es ExemplarSection, rank int, e exemplar.Exemplar) {
	flags := ""
	if names := e.FlagNames(); len(names) > 0 {
		flags = "  [" + strings.Join(names, ",") + "]"
	}
	fmt.Fprintf(b, "  %2d. seq=%-6d %-5s %-8s total=%9.1fus  issued=%.3fms%s\n",
		rank, e.Seq, e.Op, es.Label(e.Tenant), e.Total.Micros(), e.Start.Millis(), flags)
	var parts []string
	for p := 0; p < telemetry.NumPhases; p++ {
		if e.Phases[p] != 0 {
			parts = append(parts, fmt.Sprintf("%s %.1fus", telemetry.Phase(p), e.Phases[p].Micros()))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "      phases: %s\n", strings.Join(parts, ", "))
	}
	parts = parts[:0]
	for t := 0; t < telemetry.MaxTenants; t++ {
		if e.Blame[t] != 0 {
			parts = append(parts, fmt.Sprintf("%s %.1fus", es.Label(telemetry.TenantID(t)), e.Blame[t].Micros()))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "      blame: %s\n", strings.Join(parts, ", "))
	}
	if e.PathOK {
		if behind := exemplarBehind(e); behind != "" {
			fmt.Fprintf(b, "      queued behind: %s\n", behind)
		}
	}
	if e.Snap.Captured {
		fmt.Fprintf(b, "      device: %s\n", e.Snap)
	}
	if sc, pred, ok := exemplarBestWhatIf(e, es.Opts); ok {
		fmt.Fprintf(b, "      best what-if: %s -> %.1fus (x%.3f)\n",
			sc, pred/1e3, pred/float64(e.Total))
	}
}

// exemplarBehind renders the exemplar's queued-behind split from its
// critical-path record: wait phase -> occupant service phase.
func exemplarBehind(e exemplar.Exemplar) string {
	waitPhases := [telemetry.NumWaits]telemetry.Phase{
		telemetry.PhaseWPSerial, telemetry.PhaseChanWait, telemetry.PhaseLUNWait,
	}
	bindPhases := [telemetry.NumBinds]telemetry.Phase{
		telemetry.PhaseXfer, telemetry.PhaseNANDRead,
		telemetry.PhaseNANDProgram, telemetry.PhaseNANDErase,
	}
	var parts []string
	for w := 0; w < telemetry.NumWaits; w++ {
		for bi := 0; bi < telemetry.NumBinds; bi++ {
			if v := e.Path.WaitBy[w][bi]; v != 0 {
				parts = append(parts, fmt.Sprintf("%s<-%s %.1fus",
					waitPhases[w], bindPhases[bi], v.Micros()))
			}
		}
	}
	return strings.Join(parts, ", ")
}

// exemplarBestWhatIf replays the canonical counterfactuals against the
// exemplar's own critical-path record and returns the one predicting the
// lowest latency (the intervention that would have helped this IO most).
func exemplarBestWhatIf(e exemplar.Exemplar, opts critpath.PredictOpts) (string, float64, bool) {
	if !e.PathOK || e.Total == 0 {
		return "", 0, false
	}
	bestName := ""
	bestPred := 0.0
	for _, sc := range critpath.Canonical() {
		pred := critpath.Replay(&e.Path, sc, opts)
		if bestName == "" || pred < bestPred {
			bestName, bestPred = sc.Name, pred
		}
	}
	if bestName == "" {
		return "", 0, false
	}
	return bestName, bestPred, true
}

// Explain re-runs experiment id under the same Config the report used, with
// per-IO forensics armed on measured-IO sequence number seq, and returns
// the annotated tick-by-tick narrative. The run is the same seeded
// simulation, so the transcript is byte-identical across invocations
// (TestReportsByteIdentical pins this).
func Explain(cfg Config, id string, seq uint64) (string, error) {
	e, ok := ByID(id)
	if !ok {
		return "", fmt.Errorf("explain: unknown experiment %q", id)
	}
	if seq == 0 {
		return "", fmt.Errorf("explain: measured-IO sequence numbers are 1-based; 0 never matches")
	}
	// The narrator rides the session's shared sink; an external probe would
	// bring its own sink and bypass the session.
	cfg.Probe = nil
	cfg.ExplainSeq = seq
	cfg.session = newSession()
	if _, err := e.Run(cfg); err != nil {
		return "", err
	}
	n := cfg.session.narrator
	if n == nil {
		return "", fmt.Errorf("explain: %s records no per-IO attribution", e.ID)
	}
	return n.Transcript(e.ID, cfg.Seed), nil
}
