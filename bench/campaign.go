package main

import (
	"fmt"
	"strings"

	"blockhead/internal/core"
)

// campaignInst is what users run: every registered experiment through
// Run and Report.Format, full size, in process (znsbench's loop without
// the printing). A slice is one pass over the registry and an op is one
// experiment run; it is the only workload where parallelism across
// experiments or sweep points could show.
type campaignInst struct {
	exps []core.Experiment
	cfg  core.Config

	last modelStats // the latest pass's digests (set-up: the Quick pass's)

	// Over the traced passes: per-experiment and formatting host time, CPU
	// time and wall time, for core.exp_ms.*, core.format_ms and
	// core.parallelism.
	expNs         []int64
	formatNs      int64
	cpuS, wallS   float64
	tracedPasses  int
	experimentOps uint64
}

// campaignSeeds are the seeds every registered experiment is known to
// succeed on at full and Quick size. Off this list an experiment can fail:
// at seed 5, E13's conventional stack under the aggressive fault profile
// reports 2 888 integrity violations (ROADMAP's "prove the invariants off
// the pinned seed" item; not this benchmark's to fix). A workload may not
// have failing ops, so a --seed off the list picks one on it.
var campaignSeeds = func() []int64 {
	s := []int64{42}
	for i := int64(1); i <= 40; i++ {
		if i != 5 {
			s = append(s, i)
		}
	}
	return s
}()

func campaignSeed(seed int64) int64 {
	for _, s := range campaignSeeds {
		if s == seed {
			return seed
		}
	}
	return campaignSeeds[uint64(seed)%uint64(len(campaignSeeds))]
}

func newCampaign(sc scale, seed int64) (instance, error) {
	if err := core.CheckRegistry(); err != nil {
		return nil, err
	}
	c := &campaignInst{cfg: core.Config{Seed: campaignSeed(seed), Quick: sc.campaignQuick}}
	if sc.campaignIDs == nil {
		c.exps = core.All()
	}
	for _, id := range sc.campaignIDs {
		e, ok := core.ByID(id)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown experiment %q", id)
		}
		c.exps = append(c.exps, e)
	}
	c.expNs = make([]int64, len(c.exps))
	// One Quick pass warms every code path the full passes take.
	quick := c.cfg
	quick.Quick = true
	if _, failed := c.pass(quick, nil, -1); failed > 0 {
		return nil, fmt.Errorf("campaign: %d experiments failed in the Quick pass", failed)
	}
	return c, nil
}

// pass runs every experiment once and digests the reports: one SHA-256 per
// experiment and one over the whole output as znsbench prints it.
func (c *campaignInst) pass(cfg core.Config, tr *tracer, parent int32) (ops, failed uint64) {
	var all strings.Builder
	var s modelStats
	for i, e := range c.exps {
		id, t0 := tr.begin(kExperiment, parent)
		rep, err := e.Run(cfg)
		ns := tr.end(kExperiment, id, t0)
		ops++
		if err != nil {
			failed++
			s.str(e.ID+".sha256", "error: "+err.Error())
			continue
		}
		id, t0 = tr.begin(kFormat, parent)
		out := rep.Format()
		fns := tr.end(kFormat, id, t0)
		if tr.recording() {
			c.expNs[i] += ns
			c.formatNs += fns
		}
		all.WriteString(out)
		all.WriteByte('\n')
		s.str(e.ID+".sha256", sha(out)[:16])
	}
	s.str("Format.sha256", sha(all.String()))
	c.last = s
	return ops, failed
}

func (c *campaignInst) slice(tr *tracer) sliceOut {
	cpu0 := cpuSeconds()
	sid, t0 := tr.begin(kSlice, -1)
	ops, failed := c.pass(c.cfg, tr, sid)
	ns := tr.end(kSlice, sid, t0)
	c.experimentOps += ops
	if tr.recording() {
		c.cpuS += cpuSeconds() - cpu0
		c.wallS += seconds(ns)
		c.tracedPasses++
	}
	return sliceOut{ops: ops, failed: failed, ns: ns}
}

func (c *campaignInst) model() modelStats { return c.last }

func (c *campaignInst) counts() layerCounts {
	var n layerCounts
	n[cWrites] = c.experimentOps // an op is one experiment run
	return n
}

// layers: each experiment's Run and Format is a span; which layer an
// experiment exercises is the table in README.md. Shares are not split
// further here, since the experiments drive private devices the benchmark
// cannot reach.
func (c *campaignInst) layers(_ ladder, _ traced, m metricSet) {
	n := float64(max(c.tracedPasses, 1))
	for i, e := range c.exps {
		m["core.exp_ms."+e.ID] = float64(c.expNs[i]) / 1e6 / n
	}
	m["core.format_ms"] = float64(c.formatNs) / 1e6 / n
	m["core.cpu_s_per_pass"] = c.cpuS / n
	if c.wallS > 0 {
		m["core.parallelism"] = c.cpuS / c.wallS
	}
}
