// Package fault fixtures: the injector is part of the simulator core, so the
// map-iteration rule applies.
package fault

// Injector mirrors the real fault injector.
type Injector struct {
	reads  uint64
	counts map[string]uint64
}

// Reads is guarded — compliant.
func (i *Injector) Reads() uint64 {
	if i == nil {
		return 0
	}
	return i.reads
}

// Names leaks map iteration order into its output — nondeterministic
// inside the sim core.
func (i *Injector) Names() []string {
	if i == nil {
		return nil
	}
	var out []string
	for k := range i.counts { // want `\[determinism\] iteration over map i\.counts`
		out = append(out, k)
	}
	return out
}

// Total only accumulates commutatively — order-insensitive, no finding.
func (i *Injector) Total() uint64 {
	if i == nil {
		return 0
	}
	var sum uint64
	for _, v := range i.counts {
		sum += v
	}
	return sum
}
