// Deterministic replay-to-IO forensics: a Narrator armed on one measured-IO
// sequence number taps the AttrSink's charge stream, records the target
// IO's charges event by event, folds its completed record like the
// reservoir does, and renders an annotated tick-by-tick narrative — what
// the IO waited on, who held the resource, which counterfactual from the
// what-if engine would have helped most. Because the simulator is
// deterministic, re-running the seeded experiment reproduces the narrative
// byte-for-byte (core's TestReportsByteIdentical pins this).

package exemplar

import (
	"fmt"
	"strings"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// narratorEventCap bounds the per-IO event buffer. A single IO sees a few
// dozen events at most (a stripe-wide reset fans out one overlap per page
// program); overflow is counted and disclosed, never silently dropped.
const narratorEventCap = 4096

// Narrator is the sink's Tap and one of its folds at once: the tap records
// the target's charge stream, the fold captures the target's completed
// record, whose critical path the final narrative replays under the
// canonical what-if scenarios. The nil *Narrator is a valid no-op on every
// method, and no hot-path method allocates (the event buffer is
// preallocated).
type Narrator struct {
	target uint64

	done    bool
	dropped bool

	events []telemetry.ChargeEvent
	lost   int

	// completion capture
	op         telemetry.OpKind
	tenant     telemetry.TenantID
	start, end sim.Time
	phases     [telemetry.NumPhases]sim.Time
	blame      [telemetry.MaxTenants]sim.Time
	flags      uint8
	path       critpath.PathRec
	snap       DevSnap

	// stack context, re-armed per stack (Arm): the display name, the
	// replay model for what-if ranking, the device snapshot source, and
	// the tenant labeler.
	stack  string
	opts   critpath.PredictOpts
	snapFn SnapFunc
	name   func(telemetry.TenantID) string
}

// NewNarrator returns a narrator armed on one measured-IO sequence number.
func NewNarrator(target uint64) *Narrator {
	return &Narrator{
		target: target,
		events: make([]telemetry.ChargeEvent, 0, narratorEventCap),
	}
}

// Attach installs the narrator as sink's tap and one of its folds.
// Nil-safe on both sides.
func (n *Narrator) Attach(sink *telemetry.AttrSink) {
	if n == nil || sink == nil {
		return
	}
	sink.Tap = n.tap
	sink.Folds = append(sink.Folds, n)
}

// Arm sets the stack context the narrative renders under: the stack's
// display name, the what-if replay model, the device snapshot source, and
// the tenant labeler. Experiments re-arm per stack; the values captured at
// the target's completion win. Nil-safe.
func (n *Narrator) Arm(stack string, opts critpath.PredictOpts, snap SnapFunc, name func(telemetry.TenantID) string) {
	if n == nil || n.done {
		return
	}
	n.stack = stack
	n.opts = opts
	n.snapFn = snap
	n.name = name
}

// tap records one charge of the target's stream, or notes the target's
// drop (the sink's Tap).
func (n *Narrator) tap(r *telemetry.Record, ev telemetry.ChargeEvent) {
	if n.done || r.Seq != n.target {
		return
	}
	if ev.Kind == telemetry.EvDrop {
		n.done, n.dropped = true, true
		n.op, n.tenant, n.start = r.Op, r.Tenant, r.Start
		return
	}
	if len(n.events) < cap(n.events) {
		n.events = append(n.events, ev)
	} else {
		n.lost++
	}
}

// Fold captures the target's completed record (telemetry.Fold).
func (n *Narrator) Fold(r *telemetry.Record) {
	if n == nil || n.done || r.Seq != n.target {
		return
	}
	n.done = true
	n.op, n.tenant, n.start, n.end = r.Op, r.Tenant, r.Start, r.Start+r.Total
	n.phases, n.blame, n.flags = r.Phases, r.Blame, r.Flags
	n.path = critpath.PathOf(r)
	if n.snapFn != nil {
		n.snapFn(n.end, &n.snap)
		n.snap.Captured = true
	}
}

// label names a tenant by the sink's names when set, else "sys"/"t<i>".
func (n *Narrator) label(t telemetry.TenantID) string {
	if n.name != nil {
		return n.name(t)
	}
	if t == 0 {
		return "sys"
	}
	return fmt.Sprintf("t%d", t)
}

// Transcript renders the annotated tick-by-tick narrative. Deterministic:
// it reads only virtual-time state, so the same seed and experiment
// reproduce it byte-for-byte. Call after Done reports true.
func (n *Narrator) Transcript(experiment string, seed int64) string {
	if n == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== explain %s:%d (seed %d) ===\n", experiment, n.target, seed)
	if !n.done {
		fmt.Fprintf(&b, "io seq=%d never completed in this run (fewer measured IOs than the requested sequence number)\n", n.target)
		return b.String()
	}
	if n.dropped {
		fmt.Fprintf(&b, "io: %s seq=%d tenant=%s issued t=%.3fms — dropped (the IO failed partway; no charges to narrate)\n",
			n.op.String(), n.target, n.label(n.tenant), n.start.Millis())
		return b.String()
	}
	total := n.end - n.start
	fmt.Fprintf(&b, "io: %s seq=%d tenant=%s issued t=%.3fms completed t=%.3fms total=%.1fus\n",
		n.op.String(), n.target, n.label(n.tenant), n.start.Millis(), n.end.Millis(), total.Micros())
	if n.stack != "" {
		fmt.Fprintf(&b, "stack: %s\n", n.stack)
	}
	if names := (Exemplar{Flags: n.flags}).FlagNames(); len(names) > 0 {
		fmt.Fprintf(&b, "flags: %s\n", strings.Join(names, ","))
	}

	n.timeline(&b)
	n.phaseTotals(&b, total)
	n.blameLines(&b)
	if n.snap.Captured {
		fmt.Fprintf(&b, "device state at completion: %s\n", n.snap.String())
	}
	n.whatIf(&b, total)
	return b.String()
}

// timeline renders the event stream as a virtual-time walk: each on-path
// charge advances the cursor; overlapped work prints beneath the composite
// that hid it; relabels and refunds print as annotations.
func (n *Narrator) timeline(b *strings.Builder) {
	fmt.Fprintf(b, "timeline (offsets relative to issue):\n")
	var cursor sim.Time
	pendingOverlap := false
	for _, ev := range n.events {
		switch ev.Kind {
		case telemetry.EvSegment:
			fmt.Fprintf(b, "  +%-11s %-12s %10.1fus\n", usOffset(cursor), ev.P.String(), ev.D.Micros())
			cursor += ev.D
			pendingOverlap = false
		case telemetry.EvWait:
			who := "unknown occupant"
			if ev.To >= 0 {
				if ev.Culprit >= 0 {
					who = fmt.Sprintf("queued behind %s's %s", n.label(ev.Culprit), ev.To.String())
				} else {
					who = fmt.Sprintf("queued behind own %s", ev.To.String())
				}
			} else if ev.Culprit >= 0 {
				who = fmt.Sprintf("queued behind %s (pre-history)", n.label(ev.Culprit))
			}
			fmt.Fprintf(b, "  +%-11s %-12s %10.1fus  %s\n", usOffset(cursor), ev.P.String(), ev.D.Micros(), who)
			cursor += ev.D
			pendingOverlap = false
		case telemetry.EvOverlap:
			if !pendingOverlap {
				fmt.Fprintf(b, "    (concurrent device work hidden under the next composite stall:)\n")
				pendingOverlap = true
			}
			fmt.Fprintf(b, "      ~ %-12s %10.1fus (off-path)\n", ev.P.String(), ev.D.Micros())
		case telemetry.EvReassign:
			fmt.Fprintf(b, "    note: reclassified %.1fus %s -> %s\n", ev.D.Micros(), ev.P.String(), ev.To.String())
		case telemetry.EvRefund:
			fmt.Fprintf(b, "    note: refunded %.1fus of %s (early ack: host saw completion before the device finished)\n",
				ev.D.Micros(), ev.P.String())
			cursor -= ev.D
		}
	}
	if n.lost > 0 {
		fmt.Fprintf(b, "  (%d further events beyond the %d-event buffer not shown; totals below remain exact)\n",
			n.lost, narratorEventCap)
	}
}

// phaseTotals renders the exact per-phase decomposition and its sum check.
func (n *Narrator) phaseTotals(b *strings.Builder, total sim.Time) {
	var sum sim.Time
	var parts []string
	for p := 0; p < telemetry.NumPhases; p++ {
		sum += n.phases[p]
		if n.phases[p] != 0 {
			parts = append(parts, fmt.Sprintf("%s %.1fus", telemetry.Phase(p).String(), n.phases[p].Micros()))
		}
	}
	verdict := "exact"
	if sum != total {
		verdict = fmt.Sprintf("BROKEN: phases sum to %.1fus", sum.Micros())
	}
	fmt.Fprintf(b, "phase totals: %s | total %.1fus (sum==end-to-end: %s)\n",
		strings.Join(parts, "; "), total.Micros(), verdict)
}

// blameLines renders the culprit-tenant blame vector.
func (n *Narrator) blameLines(b *strings.Builder) {
	var parts []string
	for t := 0; t < telemetry.MaxTenants; t++ {
		if n.blame[t] != 0 {
			parts = append(parts, fmt.Sprintf("%s %.1fus", n.label(telemetry.TenantID(t)), n.blame[t].Micros()))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "blame: %s\n", strings.Join(parts, ", "))
	}
}

// whatIf replays the recorded critical path under the canonical scenarios
// and names the one that would have helped this IO most.
func (n *Narrator) whatIf(b *strings.Builder, total sim.Time) {
	if total <= 0 {
		return
	}
	fmt.Fprintf(b, "what-if (counterfactual replay of this IO's critical path):\n")
	bestIdx, bestNs := -1, float64(total)
	scenarios := critpath.Canonical()
	for i, sc := range scenarios {
		pred := critpath.Replay(&n.path, sc, n.opts)
		ratio := pred / float64(total)
		fmt.Fprintf(b, "  %-18s -> %10.1fus (x%.2f)\n", sc.Name, pred/1e3, ratio)
		if pred < bestNs {
			bestNs = pred
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		fmt.Fprintf(b, "verdict: %s helps most: predicted %.1fus instead of %.1fus (saves %.1fus)\n",
			scenarios[bestIdx].Name, bestNs/1e3, total.Micros(), total.Micros()-bestNs/1e3)
	} else {
		fmt.Fprintf(b, "verdict: no canonical counterfactual improves this IO\n")
	}
}

// usOffset renders a virtual-time offset as a fixed-width microsecond
// string.
func usOffset(t sim.Time) string {
	return fmt.Sprintf("%.1fus", t.Micros())
}
