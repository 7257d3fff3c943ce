package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		device string
		reads  float64
		ops    int
		want   string // substring of the error; "" means accepted
	}{
		{"conv", 0.3, 20000, ""},
		{"zns", 0, 0, ""},
		{"both", 1, 1, ""},
		{"bogus", 0.3, 1, "valid: conv, zns, both"},
		{"", 0.3, 1, "valid: conv, zns, both"},
		{"both", -0.1, 1, "valid: 0 to 1"},
		{"both", 1.5, 1, "valid: 0 to 1"},
		{"both", math.NaN(), 1, "valid: 0 to 1"},
		{"both", 0.3, -1, "valid: 0 or more"},
	} {
		err := validate(tc.device, tc.reads, tc.ops)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("validate(%q, %v, %d) = %v, want accepted", tc.device, tc.reads, tc.ops, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("validate(%q, %v, %d) = %v, want an error naming %q", tc.device, tc.reads, tc.ops, err, tc.want)
		}
	}
}
