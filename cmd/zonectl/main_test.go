package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"blockhead/internal/flash"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		zones, zonePages, maxActive int
		cell                        string
		want                        string // substring of the error; "" means accepted
	}{
		{16, 256, 14, "TLC", ""},
		{1, 1, 0, "TLC", ""},
		{maxZones, 2047, 1, "TLC", ""},
		{0, 256, 14, "TLC", "valid: 1 to 1048576"},
		{-3, 256, 14, "TLC", "valid: 1 to 1048576"},
		{1000000000, 256, 14, "TLC", "valid: 1 to 1048576"},
		{16, 0, 14, "TLC", "valid: 1 to 134217727"},
		{16, -1, 14, "TLC", "valid: 1 to 134217727"},
		{16, 1 << 27, 14, "TLC", "valid: 1 to 134217727"},
		{maxZones, 2048, 14, "TLC", "valid: 1 to 2047"},
		{13, 1 << 27, 14, "TLC", "valid: 1 to 134217727"}, // 13 zones are built as 16 blocks
		{16, 256, -2, "TLC", "valid: 0 for unlimited"},
		{16, 256, 14, "tlc", ""},
		{16, 256, 14, "Plc", ""},
		{16, 256, 14, "XLC", "valid: SLC, MLC, TLC, QLC, PLC"},
		{16, 256, 14, "", "valid: SLC, MLC, TLC, QLC, PLC"},
	} {
		_, err := validate(tc.zones, tc.zonePages, tc.maxActive, tc.cell)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("validate(%d, %d, %d, %q) = %v, want accepted", tc.zones, tc.zonePages, tc.maxActive, tc.cell, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("validate(%d, %d, %d, %q) = %v, want an error naming %q", tc.zones, tc.zonePages, tc.maxActive, tc.cell, err, tc.want)
		}
	}
	if ct, err := validate(16, 256, 14, "qlc"); err != nil || ct != flash.QLC {
		t.Errorf("validate(..., \"qlc\") = %v, %v, want QLC", ct, err)
	}
}

// TestValidatedLayoutsBuild: the extremes validate lets through are devices
// the layers below accept, so no flag value reaches a panic or the allocator
// unbounded.
func TestValidatedLayoutsBuild(t *testing.T) {
	for _, l := range [][2]int{{1, 1}, {13, 1<<27 - 1}, {16, 1<<27 - 1}} {
		ct, err := validate(l[0], l[1], 0, "TLC")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildDevice(l[0], l[1], 0, ct); err != nil {
			t.Errorf("buildDevice(%d zones x %d pages): %v", l[0], l[1], err)
		}
	}
}

// TestInspectBadCellExitsTwo: a cell name inspect cannot build exits 2 and
// names the valid set.
func TestInspectBadCellExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runInspect([]string{"-cell", "XLC"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "valid: SLC, MLC, TLC, QLC, PLC") {
		t.Errorf("stderr %q does not name the valid cell types", stderr.String())
	}
}

// TestInspectJSON decodes `inspect -json` and checks it against the text
// mode of the same op sequence: the same zone rows, a clean audit, and a
// flight ring that holds the zone transitions the ops made.
func TestInspectJSON(t *testing.T) {
	args := []string{"-ops", "append:0,append:0,finish:1,reset:0"}
	run := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := runInspect(args, &stdout, &stderr); code != 0 {
			t.Fatalf("inspect %v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	text := run(args...)
	var doc struct {
		Census map[string]int
		Zones  []inspectZone
		Wear   flash.WearSummary
		Audit  string
		Flight struct {
			Total  uint64
			Events []struct {
				Kind, Detail string
				Unit         int32
			}
		}
	}
	if err := json.Unmarshal([]byte(run(append(args, "-json")...)), &doc); err != nil {
		t.Fatal(err)
	}

	// Every zone row of the JSON matches the text table's row for it; the
	// table runs from its header to the blank line before the wear line.
	var textRows []string
	_, table, _ := strings.Cut(text, "zone   state")
	for _, line := range strings.Split(table, "\n")[1:] {
		if line == "" {
			break
		}
		textRows = append(textRows, strings.Join(strings.Fields(line), " "))
	}
	if len(doc.Zones) != 16 || len(textRows) != len(doc.Zones) {
		t.Fatalf("json has %d zones, text %d rows; want 16 each", len(doc.Zones), len(textRows))
	}
	for i, z := range doc.Zones {
		if got := strings.Join([]string{itoa(int64(z.Zone)), z.State, itoa(z.WP), itoa(z.Cap)}, " "); got != textRows[i] {
			t.Errorf("zone row %d: json %q, text %q", i, got, textRows[i])
		}
	}
	if doc.Census["full"] != 1 || doc.Census["empty"] != 15 {
		t.Errorf("census = %v, want full=1 empty=15", doc.Census)
	}
	if doc.Audit != "clean" || !strings.Contains(text, "audit: clean\n") {
		t.Errorf("audit = %q, want clean in both modes", doc.Audit)
	}
	if doc.Wear.Blocks != 16 || doc.Wear.TotalErases != 1 {
		t.Errorf("wear = %+v, want 16 blocks and the one reset's erase", doc.Wear)
	}

	// append:0 opens zone 0, finish:1 fills zone 1, reset:0 and the reset
	// zone's erase follow; the ring holds each transition in order.
	var trans []string
	for _, e := range doc.Flight.Events {
		if e.Kind == "transition" {
			trans = append(trans, itoa(int64(e.Unit))+":"+e.Detail)
		}
	}
	want := []string{"0:empty->open", "1:empty->full", "0:open->empty"}
	if strings.Join(trans, " ") != strings.Join(want, " ") {
		t.Errorf("flight transitions = %v, want %v", trans, want)
	}
	if doc.Flight.Total != uint64(len(doc.Flight.Events)) {
		t.Errorf("flight total %d, %d events in the ring", doc.Flight.Total, len(doc.Flight.Events))
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
