//go:build !race

package ftl

// raceEnabled is set in a -race build (race_test.go).
const raceEnabled = false
