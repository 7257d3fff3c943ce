// Command zonectl is a blkzone-style tool for poking at a simulated ZNS
// device: it builds a device, applies a scripted sequence of zone
// operations, and dumps the zone report. It exists to make the device
// model's state machine observable from the command line.
//
// Usage:
//
//	zonectl                                   # report on a fresh device
//	zonectl -zones 8 -zone-pages 64           # custom layout
//	zonectl -ops "append:0,append:0,finish:1,reset:0,open:2"
//	zonectl -ops "append:0,finish:0" -trace-out t.json -metrics-out m.json
//	zonectl inspect -ops "append:0,reset:0"   # zone map, wear, audit, flight
//	zonectl inspect -json -ops "append:0"     # same as machine-readable JSON
//
// Each op is name:zone; supported ops: open, close, finish, reset, append.
// -trace-out / -metrics-out record the op sequence through the telemetry
// layer (see docs/observability.md).
//
// The inspect subcommand runs the same op sequence with the zone
// state-machine auditor attached and prints the device's introspection
// state: the zone census and per-zone report, the flash wear summary, the
// audit verdict, and the flight recorder's event history. With -json it
// emits the heatmap and flight-recorder dumps as JSON instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/zns"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "inspect" {
		if err := runInspect(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "zonectl inspect:", err)
			os.Exit(1)
		}
		return
	}
	var (
		zones      = flag.Int("zones", 16, "number of zones")
		zonePages  = flag.Int("zone-pages", 256, "pages per zone")
		maxActive  = flag.Int("max-active", 14, "active-zone limit (0 = unlimited)")
		ops        = flag.String("ops", "", "comma-separated ops, e.g. append:0,finish:1,reset:0")
		cell       = flag.String("cell", "TLC", "cell type: SLC, MLC, TLC, QLC, PLC")
		metricsOut = flag.String("metrics-out", "", "write metrics JSON for the op sequence to this file")
		traceOut   = flag.String("trace-out", "", "write Chrome trace-event JSON for the op sequence to this file")
	)
	flag.Parse()
	if err := validate(*zones, *zonePages, *maxActive); err != nil {
		fmt.Fprintln(os.Stderr, "zonectl:", err)
		os.Exit(2)
	}

	dev, err := buildDevice(*zones, *zonePages, *maxActive, *cell)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zonectl:", err)
		os.Exit(1)
	}

	var probe *telemetry.Probe
	if *metricsOut != "" || *traceOut != "" {
		probe = telemetry.NewProbe(telemetry.Options{})
		dev.SetProbe(probe)
	}

	var at sim.Time
	if *ops != "" {
		for _, op := range strings.Split(*ops, ",") {
			at, err = apply(dev, at, strings.TrimSpace(op))
			if err != nil {
				fmt.Fprintf(os.Stderr, "zonectl: %s: %v\n", op, err)
				os.Exit(1)
			}
		}
	}

	fmt.Printf("device: %d zones x %d pages (%d KiB), max-active %d, virtual time %.3f ms\n",
		dev.NumZones(), dev.ZonePages(),
		dev.ZonePages()*int64(dev.PageSize())/1024, dev.MaxActive(), at.Millis())
	fmt.Printf("active %d, open %d, resets %d, appends %d\n\n",
		dev.ActiveZones(), dev.OpenZones(), dev.Resets(), dev.Appends())
	fmt.Printf("%-6s %-10s %10s %10s\n", "zone", "state", "wp", "cap")
	for _, zi := range dev.ZoneReport() {
		fmt.Printf("%-6d %-10s %10d %10d\n", zi.Zone, zi.State, zi.WP, zi.Cap)
	}

	if probe != nil {
		if err := export(probe, at, *metricsOut, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "zonectl:", err)
			os.Exit(1)
		}
	}
}

// runInspect is the `zonectl inspect` subcommand: it applies the op
// sequence with a full probe and the state-machine auditor attached, then
// prints the device's introspection state (or, with -json, the heatmap and
// flight-recorder dumps).
func runInspect(args []string) error {
	fs := flag.NewFlagSet("zonectl inspect", flag.ExitOnError)
	var (
		zones     = fs.Int("zones", 16, "number of zones")
		zonePages = fs.Int("zone-pages", 256, "pages per zone")
		maxActive = fs.Int("max-active", 14, "active-zone limit (0 = unlimited)")
		ops       = fs.String("ops", "", "comma-separated ops, e.g. append:0,finish:1,reset:0")
		cell      = fs.String("cell", "TLC", "cell type: SLC, MLC, TLC, QLC, PLC")
		jsonOut   = fs.Bool("json", false, "emit the heatmap and flight dumps as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validate(*zones, *zonePages, *maxActive); err != nil {
		fmt.Fprintln(os.Stderr, "zonectl inspect:", err)
		os.Exit(2)
	}
	dev, err := buildDevice(*zones, *zonePages, *maxActive, *cell)
	if err != nil {
		return err
	}
	probe := telemetry.NewProbe(telemetry.Options{})
	dev.SetProbe(probe)
	aud := dev.AttachAuditor()

	var at sim.Time
	if *ops != "" {
		for _, op := range strings.Split(*ops, ",") {
			if at, err = apply(dev, at, strings.TrimSpace(op)); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
		}
	}

	if *jsonOut {
		out := struct {
			Heatmap telemetry.HeatmapDump `json:"heatmap"`
			Flight  telemetry.FlightDump  `json:"flight"`
		}{probe.HeatDump(at), probe.Flight().Dump()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("device: %d zones x %d pages, max-active %d, virtual time %.3f ms\n",
		dev.NumZones(), dev.ZonePages(), dev.MaxActive(), at.Millis())
	fmt.Printf("zone map: %s\n", dev.StateCensus())
	fmt.Printf("%-6s %-10s %10s %10s\n", "zone", "state", "wp", "cap")
	for _, zi := range dev.ZoneReport() {
		fmt.Printf("%-6d %-10s %10d %10d\n", zi.Zone, zi.State, zi.WP, zi.Cap)
	}
	w := dev.Flash().Wear()
	fmt.Printf("\nwear: blocks=%d bad=%d erases=%d max=%d min=%d mean=%.2f spread=%d skew=%.2f\n",
		w.Blocks, w.BadBlocks, w.TotalErases, w.MaxErase, w.MinErase, w.MeanErase, w.Spread, w.Skew)
	if err := aud.Check(); err != nil {
		fmt.Printf("audit: FAILED: %v\n", err)
	} else if v := aud.Violations(); v > 0 {
		fmt.Printf("audit: %d violations\n", v)
	} else {
		fmt.Printf("audit: clean\n")
	}
	fmt.Println()
	return probe.Flight().WriteText(os.Stdout)
}

// export writes the telemetry collected over the op sequence.
func export(p *telemetry.Probe, at sim.Time, metricsOut, traceOut string) error {
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := p.Metrics.WriteJSON(f, at); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := p.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// maxZones bounds -zones: the tool prints a row per zone and the device keeps
// state per zone, so a count far past any real drive's is a typo, not a
// layout. (The flash layer's own ceiling is in pages and would let a billion
// one-page zones through to the allocator.)
const maxZones = 1 << 20

// validate rejects layouts the device cannot be built from, and a negative
// active-zone limit, which would otherwise be accepted and resurface on the
// first append as "active zone limit reached".
func validate(zones, zonePages, maxActive int) error {
	if zones < 1 || zones > maxZones {
		return fmt.Errorf("-zones %d is out of range (valid: 1 to %d)", zones, maxZones)
	}
	// buildDevice rounds the zone count up to a multiple of its 4 channels.
	if most := math.MaxInt32 / ((zones + 3) / 4 * 4); zonePages < 1 || zonePages > most {
		return fmt.Errorf("-zone-pages %d is out of range (valid: 1 to %d with -zones %d; a device holds at most %d pages)",
			zonePages, most, zones, math.MaxInt32)
	}
	if maxActive < 0 {
		return fmt.Errorf("-max-active %d is negative (valid: 0 for unlimited, or 1 or more)", maxActive)
	}
	return nil
}

func buildDevice(zones, zonePages, maxActive int, cell string) (*zns.Device, error) {
	var ct flash.CellType
	switch strings.ToUpper(cell) {
	case "SLC":
		ct = flash.SLC
	case "MLC":
		ct = flash.MLC
	case "TLC":
		ct = flash.TLC
	case "QLC":
		ct = flash.QLC
	case "PLC":
		ct = flash.PLC
	default:
		return nil, fmt.Errorf("unknown cell type %q", cell)
	}
	// One block per zone on a LUN-per-channel geometry wide enough to hold
	// the requested zone count.
	geom := flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: (zones + 3) / 4, PagesPerBlock: zonePages, PageSize: 4096}
	return zns.New(zns.Config{Geom: geom, Lat: flash.LatenciesFor(ct),
		ZoneBlocks: 1, MaxActive: maxActive})
}

// apply runs one op issued at virtual time at and returns when it completed.
func apply(dev *zns.Device, at sim.Time, op string) (sim.Time, error) {
	name, zoneStr, ok := strings.Cut(op, ":")
	if !ok {
		return at, fmt.Errorf("want name:zone")
	}
	z, err := strconv.Atoi(zoneStr)
	if err != nil {
		return at, err
	}
	switch name {
	case "open":
		return at, dev.Open(at, z)
	case "close":
		return at, dev.Close(at, z)
	case "finish":
		return at, dev.Finish(at, z)
	case "reset":
		return dev.Reset(at, z)
	case "append":
		_, done, err := dev.Append(at, z, nil)
		return done, err
	default:
		return at, fmt.Errorf("unknown op %q", name)
	}
}
