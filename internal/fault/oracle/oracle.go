// Package oracle is the differential data-integrity harness's shadow map.
// It records every logical write either FTL stack acknowledges — mirroring
// the monotone sequence numbers the stacks stamp out-of-band — and then
// checks every subsequent ReadMeta against what must be true:
//
//   - Live (no crash): a read of lpn must return exactly the newest
//     acknowledged version.
//   - Across a power loss at time T: writes whose program completed at or
//     before T are durable; writes still in flight may or may not have
//     reached the media. A logical page with no write in flight at T must
//     recover to exactly its durable winner. A page with an in-flight write
//     may legally recover to any acknowledged version — the in-flight write
//     itself if its program raced the failure and won, any durable
//     predecessor, or nothing at all (the in-flight write had already
//     invalidated the winner, so garbage collection may have erased it
//     before the crash).
//
// Uncorrectable reads are detected losses, counted separately from
// violations: the stack reported them honestly rather than returning wrong
// data. After a crash, CheckRecovered collapses the history of each page to
// the version the stack actually preserved, so live checking resumes
// exactly; call it for every page (VerifyAll-style) before resuming writes,
// then Resync with the stack's next sequence number.
//
// The oracle is pure host-side bookkeeping: no simulated time, no
// attribution, no allocation on the check paths.
package oracle

import (
	"errors"
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
)

// rec is one acknowledged write of a logical page.
type rec struct {
	seq    uint64
	issued sim.Time
	done   sim.Time
}

// maxDetails bounds how many violation descriptions are retained verbatim.
const maxDetails = 16

// Oracle shadow-maps one FTL stack. The nil *Oracle no-ops on every method,
// so harnesses can thread it unconditionally.
type Oracle struct {
	hist     [][]rec // per-lpn acknowledged writes, oldest first
	trimmed  []bool  // host unmapped it; durable copies may still resurrect
	inFlight []bool  // had a write in flight at the last crash
	durable  []int   // per-lpn count of writes durable at the last crash
	seq      uint64  // next sequence number the stack will assign
	crashed  bool

	violations uint64
	lostReads  uint64
	details    []string
}

// New builds an oracle for a stack with the given logical capacity.
func New(logicalPages int64) *Oracle {
	return &Oracle{
		hist:     make([][]rec, logicalPages),
		trimmed:  make([]bool, logicalPages),
		inFlight: make([]bool, logicalPages),
		durable:  make([]int, logicalPages),
		seq:      1,
	}
}

// RecordWrite mirrors one acknowledged write: the stack stamped it with the
// oracle's current sequence number (both count monotonically from the same
// origin), issued at issued and durable at done.
func (o *Oracle) RecordWrite(lpn int64, issued, done sim.Time) {
	if o == nil {
		return
	}
	o.hist[lpn] = append(o.hist[lpn], rec{seq: o.seq, issued: issued, done: done})
	o.trimmed[lpn] = false
	o.seq++
}

// RecordTrim mirrors a host trim. The history is kept: trims are host-DRAM
// metadata in both stacks, so a crash may legally resurrect durable copies.
func (o *Oracle) RecordTrim(lpn int64) {
	if o == nil {
		return
	}
	o.trimmed[lpn] = true
}

// CheckLive verifies a ReadMeta result during normal operation: the read
// must return exactly the newest acknowledged version. Reports whether the
// result was acceptable.
func (o *Oracle) CheckLive(lpn int64, gotLPN int64, seq uint64, err error) bool {
	if o == nil {
		return true
	}
	h := o.hist[lpn]
	live := len(h) > 0 && !o.trimmed[lpn]
	if errors.Is(err, flash.ErrUncorrectable) {
		o.lostReads++
		return true // detected loss, honestly reported
	}
	if err != nil {
		if !live {
			return true
		}
		return o.fail("live lpn %d: read error %v, expected seq %d", lpn, err, h[len(h)-1].seq)
	}
	if !live {
		return o.fail("dead lpn %d: read returned data (lpn %d seq %d)", lpn, gotLPN, seq)
	}
	if want := h[len(h)-1].seq; gotLPN != lpn || seq != want {
		return o.fail("live lpn %d: got (lpn %d, seq %d), want (lpn %d, seq %d)",
			lpn, gotLPN, seq, lpn, want)
	}
	return true
}

// Crash applies a power loss at crashT to the shadow map: acknowledged
// writes whose program had not completed may or may not have reached the
// media, and pages that had one in flight are marked — their durable winner
// may legally have been garbage-collected away. The full history is kept
// (with a per-page durable watermark) so an in-flight write that raced the
// failure and won is still recognised at recovery.
func (o *Oracle) Crash(crashT sim.Time) {
	if o == nil {
		return
	}
	o.crashed = true
	for lpn := range o.hist {
		h := o.hist[lpn]
		n := len(h)
		for n > 0 && h[n-1].done > crashT {
			n--
		}
		o.inFlight[lpn] = n < len(h)
		o.durable[lpn] = n
	}
}

// CheckRecovered verifies a post-recovery ReadMeta result and collapses the
// page's history to the version the stack actually preserved, so live
// checking can resume. Call it for every logical page after recovery, then
// Resync. Reports whether the result was acceptable.
func (o *Oracle) CheckRecovered(lpn int64, gotLPN int64, seq uint64, err error) bool {
	if o == nil {
		return true
	}
	h := o.hist[lpn]
	durable := len(h)
	if o.crashed {
		durable = o.durable[lpn]
	}
	if errors.Is(err, flash.ErrUncorrectable) {
		o.lostReads++
		return true
	}
	if err != nil {
		// Nothing recovered for this page. Legal when nothing durable
		// existed, the page was trimmed (trims may persist), or an
		// in-flight write had invalidated the winner before the crash.
		if durable == 0 || o.trimmed[lpn] || o.inFlight[lpn] {
			o.hist[lpn] = h[:0]
			o.trimmed[lpn] = false
			return true
		}
		return o.fail("recovery lost lpn %d: error %v, expected durable seq %d",
			lpn, err, h[durable-1].seq)
	}
	if len(h) == 0 {
		return o.fail("recovery fabricated lpn %d: got (lpn %d, seq %d), nothing durable",
			lpn, gotLPN, seq)
	}
	if gotLPN != lpn {
		return o.fail("recovery cross-mapped lpn %d: page is stamped lpn %d (seq %d)",
			lpn, gotLPN, seq)
	}
	idx := -1
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].seq == seq {
			idx = i
			break
		}
	}
	if idx < 0 {
		return o.fail("recovery returned unknown version for lpn %d: seq %d never acknowledged", lpn, seq)
	}
	if !o.inFlight[lpn] && !o.trimmed[lpn] && idx != durable-1 {
		return o.fail("recovery resurrected stale lpn %d: got seq %d, want winner seq %d",
			lpn, seq, h[durable-1].seq)
	}
	o.hist[lpn] = h[:idx+1]
	o.trimmed[lpn] = false
	return true
}

// Resync ends the crash epoch: the stack reassigns sequence numbers from
// nextSeq (its recovery scan's max observed + 1), and the oracle follows.
func (o *Oracle) Resync(nextSeq uint64) {
	if o == nil {
		return
	}
	o.seq = nextSeq
	o.crashed = false
	for i := range o.inFlight {
		o.inFlight[i] = false
	}
}

// fail records one violation (always returns false for use in checks).
func (o *Oracle) fail(format string, args ...any) bool {
	o.violations++
	if len(o.details) < maxDetails {
		o.details = append(o.details, fmt.Sprintf(format, args...))
	}
	return false
}

// Violations reports the total integrity violations observed; nil-safe.
func (o *Oracle) Violations() uint64 {
	if o == nil {
		return 0
	}
	return o.violations
}

// LostReads reports detected (honestly surfaced) losses: uncorrectable
// reads and recovery-time unreadable pages; nil-safe.
func (o *Oracle) LostReads() uint64 {
	if o == nil {
		return 0
	}
	return o.lostReads
}

// Details returns up to the first 16 violation descriptions; nil-safe.
func (o *Oracle) Details() []string {
	if o == nil {
		return nil
	}
	return o.details
}
