package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		zones, zonePages, maxActive int
		want                        string // substring of the error; "" means accepted
	}{
		{16, 256, 14, ""},
		{1, 1, 0, ""},
		{maxZones, 2047, 1, ""},
		{0, 256, 14, "valid: 1 to 1048576"},
		{-3, 256, 14, "valid: 1 to 1048576"},
		{1000000000, 256, 14, "valid: 1 to 1048576"},
		{16, 0, 14, "valid: 1 to 134217727"},
		{16, -1, 14, "valid: 1 to 134217727"},
		{16, 1 << 27, 14, "valid: 1 to 134217727"},
		{maxZones, 2048, 14, "valid: 1 to 2047"},
		{13, 1 << 27, 14, "valid: 1 to 134217727"}, // 13 zones are built as 16 blocks
		{16, 256, -2, "valid: 0 for unlimited"},
	} {
		err := validate(tc.zones, tc.zonePages, tc.maxActive)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("validate(%d, %d, %d) = %v, want accepted", tc.zones, tc.zonePages, tc.maxActive, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("validate(%d, %d, %d) = %v, want an error naming %q", tc.zones, tc.zonePages, tc.maxActive, err, tc.want)
		}
	}
}

// TestValidatedLayoutsBuild: the extremes validate lets through are devices
// the layers below accept, so no flag value reaches a panic or the allocator
// unbounded.
func TestValidatedLayoutsBuild(t *testing.T) {
	for _, l := range [][2]int{{1, 1}, {13, 1<<27 - 1}, {16, 1<<27 - 1}} {
		if err := validate(l[0], l[1], 0); err != nil {
			t.Fatal(err)
		}
		if _, err := buildDevice(l[0], l[1], 0, "TLC"); err != nil {
			t.Errorf("buildDevice(%d zones x %d pages): %v", l[0], l[1], err)
		}
	}
}
