// Package fault is the seeded, deterministic fault-injection subsystem.
// It models the NAND error processes the paper's reliability argument rests
// on (§2.1: cells wear out; §2.2/§4: whoever owns the FTL owns media
// management): per-operation transient read failures recovered by read-retry
// escalation, and program/erase hard failures whose probability grows with a
// block's wear and which permanently retire the block (grown bad blocks).
//
// Every draw comes from one rand.Rand seeded from the run's seed, and the
// simulator core is single-threaded, so a fault campaign reproduces
// bit-for-bit: same seed, same profile, same faults at the same operations.
//
// The injector answers "does this operation fail?"; the device models
// (internal/flash and the layers above it) own the consequences — retry
// timing, bad-block remapping, zone state transitions. Power loss is not an
// injector concern: flash.Device.CrashAt truncates device state to the
// durable prefix and the stacks' Recover methods rebuild from it, reporting
// a RecoveryReport (defined here so every layer shares one shape).
package fault

import (
	"fmt"
	"math/rand"

	"blockhead/internal/sim"
)

// Profile parameterizes the NAND error model. Probabilities are per
// operation; the wear multipliers add wear-proportional hard-failure
// probability, where wear is the block's consumed endurance fraction
// (erase count / endurance budget), so grown bad blocks accumulate as the
// device ages — the §2.1 failure mode.
type Profile struct {
	Name string

	// ReadTransientProb is the probability that one read sense fails and
	// must be retried with tuned thresholds. After ReadRetries failed
	// retries the read is uncorrectable (detected data loss, not silent
	// corruption — ECC catches it).
	ReadTransientProb float64
	ReadRetries       int

	// ProgramFailBase/ProgramWearMult give the per-program hard-failure
	// probability ProgramFailBase + ProgramWearMult*wear. A failed program
	// retires the block; pages programmed before the failure stay readable.
	ProgramFailBase float64
	ProgramWearMult float64

	// EraseFailBase/EraseWearMult give the per-erase hard-failure
	// probability. A failed erase retires the block.
	EraseFailBase float64
	EraseWearMult float64
}

// profiles are the named fault profiles, mildest first. "none" arms the
// fault plumbing (OOB stamping, crash tracking) without consuming any
// entropy or injecting anything — the control for overhead and for pure
// power-loss campaigns.
var profiles = []Profile{
	{Name: "none"},
	{
		Name:              "default",
		ReadTransientProb: 2e-3, ReadRetries: 8,
		ProgramFailBase: 2e-5, ProgramWearMult: 4e-4,
		EraseFailBase: 1e-5, EraseWearMult: 8e-4,
	},
	{
		Name:              "aggressive",
		ReadTransientProb: 8e-3, ReadRetries: 6,
		ProgramFailBase: 4e-4, ProgramWearMult: 4e-3,
		EraseFailBase: 2e-4, EraseWearMult: 8e-3,
	},
	{
		Name:              "wearout",
		ReadTransientProb: 1e-3, ReadRetries: 8,
		ProgramFailBase: 1e-6, ProgramWearMult: 2e-2,
		EraseFailBase: 1e-6, EraseWearMult: 4e-2,
	},
}

// Profiles returns the named profiles in a stable order.
func Profiles() []Profile { return append([]Profile(nil), profiles...) }

// ProfileByName looks a profile up; the empty name means "none".
func ProfileByName(name string) (Profile, bool) {
	if name == "" {
		return profiles[0], true
	}
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames lists the valid -faults arguments.
func ProfileNames() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Counts tallies injected faults.
type Counts struct {
	ReadTransients uint64 // failed senses recovered by a retry
	ReadRetryOps   uint64 // reads that needed at least one retry
	Uncorrectable  uint64 // reads that exhausted the retry budget
	ProgramFails   uint64
	EraseFails     uint64
}

// Injector draws fault decisions from one seeded stream. The nil *Injector
// is the disabled no-op on every method — device hot paths query it
// unconditionally — and profiles with a zero probability for an operation
// class skip the draw entirely, so "none" consumes no entropy and perturbs
// nothing. An injector belongs to one device: its draws form a single
// sequence in that device's virtual-time order, which is what makes a seeded
// campaign bit-identical.
type Injector struct {
	prof   Profile
	rng    *rand.Rand
	counts Counts
}

// New builds an injector for the profile, seeded deterministically.
func New(prof Profile, seed int64) *Injector {
	return &Injector{prof: prof, rng: rand.New(rand.NewSource(seed))}
}

// Profile returns the injector's profile; nil-safe (zero Profile).
func (i *Injector) Profile() Profile {
	if i == nil {
		return Profile{}
	}
	return i.prof
}

// Counts returns the fault tallies so far; nil-safe.
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return i.counts
}

// ReadFaults decides one read's transient-failure outcome: how many retry
// senses it needed, and whether it exhausted the retry budget
// (uncorrectable). Nil-safe: no injector, no retries.
func (i *Injector) ReadFaults(wear float64) (retries int, uncorrectable bool) {
	if i == nil || i.prof.ReadTransientProb <= 0 {
		return 0, false
	}
	p := i.prof.ReadTransientProb
	for n := 0; n <= i.prof.ReadRetries; n++ {
		if i.rng.Float64() >= p {
			if n > 0 {
				i.counts.ReadTransients += uint64(n)
				i.counts.ReadRetryOps++
			}
			return n, false
		}
	}
	i.counts.ReadTransients += uint64(i.prof.ReadRetries)
	i.counts.ReadRetryOps++
	i.counts.Uncorrectable++
	return i.prof.ReadRetries, true
}

// ProgramFails decides whether one page program hard-fails; nil-safe.
func (i *Injector) ProgramFails(wear float64) bool {
	if i == nil {
		return false
	}
	p := i.prof.ProgramFailBase + i.prof.ProgramWearMult*wear
	if p <= 0 {
		return false
	}
	if i.rng.Float64() >= p {
		return false
	}
	i.counts.ProgramFails++
	return true
}

// EraseFails decides whether one block erase hard-fails; nil-safe.
func (i *Injector) EraseFails(wear float64) bool {
	if i == nil {
		return false
	}
	p := i.prof.EraseFailBase + i.prof.EraseWearMult*wear
	if p <= 0 {
		return false
	}
	if i.rng.Float64() >= p {
		return false
	}
	i.counts.EraseFails++
	return true
}

// RecoveryReport is one stack's account of a power-loss recovery: what the
// crash cost and what the restart scan did. It lands in telemetry (flight
// recorder), test assertions, and the E-report output.
type RecoveryReport struct {
	Stack       string
	CrashAt     sim.Time
	RecoveredAt sim.Time

	// LostPages counts in-flight programs undone by the crash (their
	// completion would have been after the cut); TornBlocks counts blocks
	// truncated all the way back to zero written pages, which recovery
	// re-erases before reuse (their cells are in an indeterminate state).
	LostPages  int64
	TornBlocks int

	// Scan cost: ScannedBlocks/ScannedPages are the recovery reads issued
	// (the conventional FTL reads every written page's OOB area; the ZNS
	// device issues one confirming read per stripe block). UnreadablePages
	// are scan reads lost to uncorrectable errors.
	ScannedBlocks   int64
	ScannedPages    int64
	UnreadablePages int64

	// RecoveredMappings counts logical pages whose mapping survived;
	// SealedBlocks (conventional) counts torn write frontiers closed to
	// further programs; ErasedBlocks counts blocks re-erased during
	// recovery.
	RecoveredMappings int64
	SealedBlocks      int
	ErasedBlocks      int

	// Zone census after write-pointer rediscovery (ZNS stacks only).
	ZonesEmpty, ZonesFull, ZonesReadOnly, ZonesOffline int
}

// Duration is the virtual time the recovery took.
func (r RecoveryReport) Duration() sim.Time { return r.RecoveredAt - r.CrashAt }

// String renders the one-line summary used in reports and test output.
func (r RecoveryReport) String() string {
	return fmt.Sprintf(
		"%s recovery: %.3fms (crash@%.3fms, lost %d in-flight pages, %d torn blocks), scanned %d pages/%d blocks, %d mappings, sealed %d, erased %d",
		r.Stack, r.Duration().Millis(), r.CrashAt.Millis(), r.LostPages, r.TornBlocks,
		r.ScannedPages, r.ScannedBlocks, r.RecoveredMappings, r.SealedBlocks, r.ErasedBlocks)
}
