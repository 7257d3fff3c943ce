//go:build race

package ftl

// raceEnabled is set in a -race build. The femu256 runs (a million pages per
// device, each page op about fifteen times slower under the race detector)
// skip there; the plain `go test ./...` and `make bench-telemetry` run them.
const raceEnabled = true
