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
//	zonectl inspect -ops "append:0,reset:0"   # zone map, wear, audit, flight
//	zonectl inspect -json -ops "append:0"     # same as machine-readable JSON
//
// Each op is name:zone; supported ops: open, close, finish, reset, append.
// A flag value that cannot describe a device (a zone count or size out of
// range, a negative active-zone limit, an unknown cell type) exits 2 with
// the valid range or set; a failing op exits 1.
//
// The inspect subcommand runs the same op sequence with the zone
// state-machine auditor and the flight recorder attached and prints the
// device's introspection state: the zone census and per-zone report, the
// flash wear summary, the audit verdict, and the flight recorder's event
// history. With -json it emits the same values as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
		os.Exit(runInspect(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		zones     = flag.Int("zones", 16, "number of zones")
		zonePages = flag.Int("zone-pages", 256, "pages per zone")
		maxActive = flag.Int("max-active", 14, "active-zone limit (0 = unlimited)")
		ops       = flag.String("ops", "", "comma-separated ops, e.g. append:0,finish:1,reset:0")
		cell      = flag.String("cell", "TLC", "cell type: "+cellNames())
	)
	flag.Parse()
	ct, err := validate(*zones, *zonePages, *maxActive, *cell)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zonectl:", err)
		os.Exit(2)
	}

	dev, err := buildDevice(*zones, *zonePages, *maxActive, ct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zonectl:", err)
		os.Exit(1)
	}

	at, err := applyAll(dev, *ops)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zonectl:", err)
		os.Exit(1)
	}

	fmt.Printf("device: %d zones x %d pages (%d KiB), max-active %d, virtual time %.3f ms\n",
		dev.NumZones(), dev.ZonePages(),
		dev.ZonePages()*int64(dev.PageSize())/1024, dev.MaxActive(), at.Millis())
	fmt.Printf("active %d, open %d, resets %d, appends %d\n\n",
		dev.ActiveZones(), dev.OpenZones(), dev.Resets(), dev.Appends())
	writeZones(os.Stdout, dev)
}

// runInspect is the `zonectl inspect` subcommand: it applies the op
// sequence with the flight recorder and the state-machine auditor attached,
// then prints the device's introspection state to stdout (with -json, as
// one JSON object). It returns the process exit code: 2 for a flag value it
// cannot run, 1 for a failing op.
func runInspect(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zonectl inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		zones     = fs.Int("zones", 16, "number of zones")
		zonePages = fs.Int("zone-pages", 256, "pages per zone")
		maxActive = fs.Int("max-active", 14, "active-zone limit (0 = unlimited)")
		ops       = fs.String("ops", "", "comma-separated ops, e.g. append:0,finish:1,reset:0")
		cell      = fs.String("cell", "TLC", "cell type: "+cellNames())
		jsonOut   = fs.Bool("json", false, "emit the zone map, wear, audit verdict and flight dump as JSON")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "zonectl inspect:", err)
		return code
	}
	ct, err := validate(*zones, *zonePages, *maxActive, *cell)
	if err != nil {
		return fail(2, err)
	}
	dev, err := buildDevice(*zones, *zonePages, *maxActive, ct)
	if err != nil {
		return fail(1, err)
	}
	probe := telemetry.NewProbe()
	dev.SetProbe(probe)
	aud := dev.AttachAuditor()
	at, err := applyAll(dev, *ops)
	if err != nil {
		return fail(1, err)
	}

	if *jsonOut {
		err = writeInspectJSON(stdout, dev, auditVerdict(aud), probe.Flight().Dump())
	} else {
		fmt.Fprintf(stdout, "device: %d zones x %d pages, max-active %d, virtual time %.3f ms\n",
			dev.NumZones(), dev.ZonePages(), dev.MaxActive(), at.Millis())
		fmt.Fprintf(stdout, "zone map: %s\n", dev.StateCensus())
		writeZones(stdout, dev)
		w := dev.Flash().Wear()
		fmt.Fprintf(stdout, "\nwear: blocks=%d bad=%d erases=%d max=%d min=%d mean=%.2f spread=%d skew=%.2f\n",
			w.Blocks, w.BadBlocks, w.TotalErases, w.MaxErase, w.MinErase, w.MeanErase, w.Spread, w.Skew)
		fmt.Fprintf(stdout, "audit: %s\n\n", auditVerdict(aud))
		err = probe.Flight().WriteText(stdout)
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// inspectZone is one zone-report row as `inspect -json` prints it: the
// columns of the text table, with the state by name.
type inspectZone struct {
	Zone  int    `json:"zone"`
	State string `json:"state"`
	WP    int64  `json:"wp"`
	Cap   int64  `json:"cap"`
}

// writeInspectJSON prints what the text mode of inspect prints — the zone
// census, the zone report, the wear summary and the audit verdict — plus the
// flight-recorder dump, as one indented JSON object.
func writeInspectJSON(w io.Writer, dev *zns.Device, audit string, flight telemetry.FlightDump) error {
	census := map[string]int{}
	for s, n := range dev.StateCensus() {
		census[zns.ZoneState(s).String()] = n
	}
	var rows []inspectZone
	for _, zi := range dev.ZoneReport() {
		rows = append(rows, inspectZone{zi.Zone, zi.State.String(), zi.WP, zi.Cap})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // flight details read "open->full", not "open-\u003efull"
	return enc.Encode(struct {
		Census map[string]int       `json:"census"`
		Zones  []inspectZone        `json:"zones"`
		Wear   flash.WearSummary    `json:"wear"`
		Audit  string               `json:"audit"`
		Flight telemetry.FlightDump `json:"flight"`
	}{census, rows, dev.Flash().Wear(), audit, flight})
}

// writeZones prints the blkzone-style zone table both modes share.
func writeZones(w io.Writer, dev *zns.Device) {
	fmt.Fprintf(w, "%-6s %-10s %10s %10s\n", "zone", "state", "wp", "cap")
	for _, zi := range dev.ZoneReport() {
		fmt.Fprintf(w, "%-6d %-10s %10d %10d\n", zi.Zone, zi.State, zi.WP, zi.Cap)
	}
}

// auditVerdict is the state-machine auditor's one-line result.
func auditVerdict(aud *zns.Auditor) string {
	if err := aud.Check(); err != nil {
		return "FAILED: " + err.Error()
	}
	if v := aud.Violations(); v > 0 {
		return fmt.Sprintf("%d violations", v)
	}
	return "clean"
}

// applyAll runs the comma-separated op sequence from virtual time 0 and
// returns when the last op completed; the first failing op stops it.
func applyAll(dev *zns.Device, ops string) (sim.Time, error) {
	var at sim.Time
	if ops == "" {
		return at, nil
	}
	for _, op := range strings.Split(ops, ",") {
		var err error
		if at, err = apply(dev, at, strings.TrimSpace(op)); err != nil {
			return at, fmt.Errorf("%s: %w", op, err)
		}
	}
	return at, nil
}

// maxZones bounds -zones: the tool prints a row per zone and the device keeps
// state per zone, so a count far past any real drive's is a typo, not a
// layout. (The flash layer's own ceiling is in pages and would let a billion
// one-page zones through to the allocator.)
const maxZones = 1 << 20

// validate rejects layouts the device cannot be built from, a negative
// active-zone limit, which would otherwise be accepted and resurface on the
// first append as "active zone limit reached", and a cell name that is none
// of SLC to PLC (matched case-insensitively). It returns the cell type.
func validate(zones, zonePages, maxActive int, cell string) (flash.CellType, error) {
	if zones < 1 || zones > maxZones {
		return 0, fmt.Errorf("-zones %d is out of range (valid: 1 to %d)", zones, maxZones)
	}
	// buildDevice rounds the zone count up to a multiple of its 4 channels.
	if most := math.MaxInt32 / ((zones + 3) / 4 * 4); zonePages < 1 || zonePages > most {
		return 0, fmt.Errorf("-zone-pages %d is out of range (valid: 1 to %d with -zones %d; a device holds at most %d pages)",
			zonePages, most, zones, math.MaxInt32)
	}
	if maxActive < 0 {
		return 0, fmt.Errorf("-max-active %d is negative (valid: 0 for unlimited, or 1 or more)", maxActive)
	}
	for ct := flash.SLC; ct <= flash.PLC; ct++ {
		if strings.EqualFold(cell, ct.String()) {
			return ct, nil
		}
	}
	return 0, fmt.Errorf("-cell %q is not a cell type (valid: %s)", cell, cellNames())
}

// cellNames lists the cell types -cell accepts.
func cellNames() string {
	var names []string
	for ct := flash.SLC; ct <= flash.PLC; ct++ {
		names = append(names, ct.String())
	}
	return strings.Join(names, ", ")
}

func buildDevice(zones, zonePages, maxActive int, ct flash.CellType) (*zns.Device, error) {
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
