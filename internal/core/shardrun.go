package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file runs an experiment's independent sub-simulations ("parts") and
// merges their results in part order.
//
// A part is one device stack with its own flash chip, workload source, fault
// injector (seeded from cfg.Seed, consumed in the part's own virtual-time
// order) and telemetry session, so parts share nothing while they run. The
// one thing a report needs across parts is the numbering of measured IOs:
// `-explain <exp>:<seq>` must be unambiguous within a run. Each part's
// private sink numbers from 1, and part k's exemplar sequence numbers are
// rebased afterwards by the measured-IO count of parts 0..k-1. Aggregates
// need no correction: a private sink starts from zero.

// residentBudget bounds the payload bytes the parts running at once may
// declare between them: one E5-sized data-storing stack (14 MiB), so E5's
// two parts run one at a time and the campaign's peak RSS stays where a
// serial run puts it. A declared byte is a resident byte: zkv keeps full
// table segments in slab chunks mapped outside the Go heap, where the
// collector's pacing does not double them. The budget counts only running
// parts because a part builds the stacks it runs: a finished part's devices
// are garbage, their chunks are unmapped once the collector finds them, and
// a part closure captures no device. Parts that store no data declare 0 and
// are bounded by GOMAXPROCS alone.
const residentBudget = 16 << 20

// partTask is one part: run executes it under a part-scoped Config; rebase,
// if non-nil, shifts the result's measured-IO sequence numbers by the
// measured-IO count of the preceding parts. bytes is the payload the part's
// stacks can hold resident: Geometry.CapacityBytes() of each device built
// with StoreData, 0 when no device stores data.
type partTask struct {
	run    func(cfg Config) error
	rebase func(delta uint64)
	bytes  int64
}

// seqRebaser is implemented by part results that expose measured-IO
// sequence numbers (exemplar sections and their -explain hints).
type seqRebaser interface {
	rebaseSeqs(delta uint64)
}

// part adapts a typed stack function (e.g. E4Conventional) into a partTask
// that stores its result in *out and knows how to rebase it.
func part[T any](out *T, f func(Config) (T, error)) partTask {
	return partTask{
		run: func(cfg Config) error {
			r, err := f(cfg)
			if err != nil {
				return err
			}
			*out = r
			return nil
		},
		rebase: func(delta uint64) {
			if r, ok := any(out).(seqRebaser); ok {
				r.rebaseSeqs(delta)
			}
		},
	}
}

// partWorkers is how many parts run at once:
// clamp(residentBudget / largest declared bytes, 1, min(GOMAXPROCS, parts)).
func partWorkers(parts []partTask) int {
	n := min(runtime.GOMAXPROCS(0), len(parts))
	var largest int64
	for _, p := range parts {
		largest = max(largest, p.bytes)
	}
	if largest > 0 {
		n = min(n, int(residentBudget/largest))
	}
	return max(n, 1)
}

// runParts runs the parts on partWorkers(parts) workers, each part on a
// private session, and returns the first failed part's error in part order;
// a part's panic is re-raised on the caller the same way. A seeded run's
// results are identical at every worker count.
//
// Explain and probed runs instead execute the parts in order on the
// caller's session: the narrator must see the whole run's numbering on one
// sink, and a test's cfg.Probe sink must see every IO of the run in order.
func runParts(cfg Config, parts ...partTask) error {
	if cfg.Probe != nil || cfg.ExplainSeq != 0 {
		for _, p := range parts {
			if err := p.run(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	seqs := make([]uint64, len(parts))
	errs := make([]error, len(parts))
	panics := make([]any, len(parts))
	// runOne keeps the part's measured-IO count, not its session: a session's
	// sink holds the device-snapshot source its stacks armed, so keeping it
	// would keep a finished part's devices live until the last part ends.
	runOne := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panics[i], ok = r, false
			}
		}()
		pcfg := cfg
		pcfg.session = newSession()
		errs[i] = parts[i].run(pcfg)
		if s := pcfg.session.sink; s != nil {
			seqs[i] = s.Seq()
		}
		return errs[i] == nil
	}
	// Workers claim parts from one cursor in part order, so a slow part
	// holds up only its own worker. A part that fails ends its worker: every
	// part before a claimed one was claimed earlier, so the first failure in
	// part order always ran, and one worker stops where the in-order loop
	// would.
	var next atomic.Int64 //simlint:allow concurrency the claim cursor is the workers' only shared state
	var wg sync.WaitGroup //simlint:allow concurrency parts share no state; this is the one place the harness spends a second core
	for range partWorkers(parts) {
		wg.Add(1)
		//simlint:allow concurrency a worker owns the part it claimed and its slots in sessions/errs/panics until wg.Wait
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(parts) || !runOne(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
	var offset uint64
	for i, p := range parts {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
		if p.rebase != nil {
			p.rebase(offset)
		}
		offset += seqs[i]
	}
	return nil
}
