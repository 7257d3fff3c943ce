package telemetry

import "testing"

func TestNilHandlesAreNoOps(t *testing.T) {
	var p *Probe
	if p.Attribution() != nil || p.Flight() != nil {
		t.Error("nil probe returned live components")
	}
	p = NewProbe()
	if p.Attribution() != p.Attr || p.Flight() != p.FlightRec || p.Attr == nil || p.FlightRec == nil {
		t.Error("armed probe did not resolve its components")
	}
}
