package core

import (
	"fmt"
	"strings"
	"testing"

	"blockhead/internal/fault"
)

// faultOutcome is the comparable digest of one stack's oracle-checked crash
// campaign: every field the differential harness can observe.
type faultOutcome struct {
	violations uint64
	details    string
	nextSeq    uint64
}

// runFaultOutcome drives one stack through the shared differential schedule
// and digests the oracle's verdicts.
func runFaultOutcome(cfg Config, build func(Config, fault.Profile) (e13Stack, error),
	prof fault.Profile, seed, total, crashIdx int64) (faultOutcome, error) {
	s, err := build(cfg, prof)
	if err != nil {
		return faultOutcome{}, err
	}
	oc, err := runFaultSchedule(s, seed, total, crashIdx)
	if err != nil {
		return faultOutcome{}, err
	}
	return faultOutcome{
		violations: oc.Violations(),
		details:    strings.Join(oc.Details(), "\n"),
		nextSeq:    s.nextSeq(),
	}, nil
}

// FuzzShardSchedule fuzzes the (seed, worker count, crash point) space of
// the part runner: both fault-campaign stacks run once by direct calls and
// once as parts under runParts, and the oracle's verdicts — violation count,
// detail text, and the recovery sequence horizon — must match exactly,
// whatever the schedule. The seed corpus pins worker counts below, at and
// above the part count plus crash-at-zero and a crash in recovery-heavy
// steady state.
func FuzzShardSchedule(f *testing.F) {
	f.Add(int64(42), uint8(2), uint16(100))
	f.Add(int64(42), uint8(4), uint16(700))
	f.Add(int64(7), uint8(8), uint16(1100))
	f.Add(int64(99), uint8(3), uint16(0))
	f.Add(int64(1234), uint8(5), uint16(650))

	prof, _ := fault.ProfileByName("default")
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, crashAt uint16) {
		cfg := Config{Quick: true, Seed: 42}
		workers := 1 + int(shards)%8
		setWorkers(t, workers)
		const total = 1200
		crashIdx := int64(crashAt) % total

		ref := make([]faultOutcome, len(faultStackBuilders))
		for i, sb := range faultStackBuilders {
			out, err := runFaultOutcome(cfg, sb.build, prof, seed, total, crashIdx)
			if err != nil {
				t.Fatalf("direct %s seed=%d crash@%d: %v", sb.name, seed, crashIdx, err)
			}
			ref[i] = out
		}

		got := make([]faultOutcome, len(faultStackBuilders))
		var parts []partTask
		for i, sb := range faultStackBuilders {
			parts = append(parts, part(&got[i], func(c Config) (faultOutcome, error) {
				return runFaultOutcome(c, sb.build, prof, seed, total, crashIdx)
			}))
		}
		if err := runParts(cfg, parts...); err != nil {
			t.Fatalf("runParts seed=%d workers=%d crash@%d: %v", seed, workers, crashIdx, err)
		}

		for i, sb := range faultStackBuilders {
			label := fmt.Sprintf("%s seed=%d workers=%d crash@%d", sb.name, seed, workers, crashIdx)
			if got[i] != ref[i] {
				t.Errorf("%s: outcome under runParts diverged from the direct call:\n  direct   %+v\n  runParts %+v",
					label, ref[i], got[i])
			}
			if got[i].violations != 0 {
				t.Errorf("%s: %d oracle violations:\n%s", label, got[i].violations, got[i].details)
			}
		}
	})
}
