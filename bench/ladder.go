package main

import (
	"math/rand"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// ladder holds the rungs: each layer's public functions driven standalone,
// bottom up, on the run's geometry. Where the benchmark cannot record a
// span between two layers (ftl calls flash, hostftl calls zns calls flash),
// a child's time inside a workload is its op counts times its rungs, and
// the parent keeps what is left of the measured span. Rungs run hotter in
// cache than the same calls inside a workload, so a child estimated this
// way errs low and its parent's self time errs high.
type ladder struct {
	spanNs float64 // what an empty span measures: the clock's own cost

	simLoopNs, simLoopAllocs     float64
	uniformNs, poissonNs, zipfNs float64

	flashNewS, flashProgramNs, flashReadNs, flashEraseNs, flashCopyNs float64

	ftlNewS, ftlSeqWriteNs, ftlGCWriteNs, ftlReadNs float64

	znsNewS, znsAppendNs, znsReadNs, znsResetNs, znsSimpleCopyNs float64

	hostSeqWriteNs, hostGCWriteNs, hostReadNs float64

	// The mixed drive with one instrument armed at a time, each minus the
	// rung below it; armed is everything attrProbe arms minus the nil
	// drive, split at the OpFunc boundary into driver and closure sides.
	telAttrNs, telCritNs, telExemNs, telArmedNs, telArmedAllocs float64
	telDriverNs, telClosureNs                                   float64
}

func (ld ladder) metrics(m metricSet) {
	m["sim.loop_ns_per_event"], m["sim.loop_allocs_per_event"] = ld.simLoopNs, ld.simLoopAllocs
	m["workload.uniform_ns"], m["workload.poisson_ns"], m["workload.zipf_ns"] = ld.uniformNs, ld.poissonNs, ld.zipfNs
	m["flash.new_s"], m["flash.program_ns"], m["flash.read_ns"] = ld.flashNewS, ld.flashProgramNs, ld.flashReadNs
	m["flash.erase_ns"], m["flash.copy_ns"] = ld.flashEraseNs, ld.flashCopyNs
	m["ftl.new_s"], m["ftl.seq_write_ns"], m["ftl.gc_write_ns"], m["ftl.read_ns"] = ld.ftlNewS, ld.ftlSeqWriteNs, ld.ftlGCWriteNs, ld.ftlReadNs
	m["zns.new_s"], m["zns.append_ns"], m["zns.read_ns"] = ld.znsNewS, ld.znsAppendNs, ld.znsReadNs
	m["zns.reset_ns"], m["zns.simple_copy_ns_per_page"] = ld.znsResetNs, ld.znsSimpleCopyNs
	m["hostftl.seq_write_ns"], m["hostftl.gc_write_ns"], m["hostftl.read_ns"] = ld.hostSeqWriteNs, ld.hostGCWriteNs, ld.hostReadNs
	m["telemetry.attr_ns_per_op"], m["telemetry.critpath_ns_per_op"] = ld.telAttrNs, ld.telCritNs
	m["telemetry.exemplar_ns_per_op"], m["telemetry.armed_ns_per_op"] = ld.telExemNs, ld.telArmedNs
	m["telemetry.armed_allocs_per_op"] = ld.telArmedAllocs
}

// flashNs prices a workload's flash ops at the standalone rungs.
func (ld ladder) flashNs(c layerCounts) float64 {
	return float64(c[cFlashPrograms])*ld.flashProgramNs +
		float64(c[cFlashReads])*ld.flashReadNs +
		float64(c[cFlashErases])*ld.flashEraseNs
}

// znsSelfNs prices zns's own share of a workload's zone ops: every flash
// program and read under a zoned stack came through zns.Append/Write and
// zns.Read, so each rung minus the flash rung inside it is zns's part.
func (ld ladder) znsSelfNs(c layerCounts) float64 {
	ns := float64(c[cFlashPrograms])*max(ld.znsAppendNs-ld.flashProgramNs, 0) +
		float64(c[cFlashReads])*max(ld.znsReadNs-ld.flashReadNs, 0)
	if resets := float64(c[cZNSResets]); resets > 0 {
		erasesPerReset := float64(c[cFlashErases]) / resets
		ns += resets * max(ld.znsResetNs-erasesPerReset*ld.flashEraseNs, 0)
	}
	return ns
}

// fit scales ladder estimates down together when they add up to more than
// the measured span they sit inside, and reports what the span has left: a
// child priced by its rungs can never take more time than its parent had.
func fit(span float64, parts ...*float64) (rest float64) {
	var sum float64
	for _, p := range parts {
		sum += *p
	}
	if sum <= span {
		return span - sum
	}
	for _, p := range parts {
		*p *= span / sum
	}
	return 0
}

// sampledMean is the mean duration of a kind's sampled spans with the
// clock's own cost taken out.
func (ld ladder) sampledMean(a accum) float64 {
	if a.n == 0 {
		return 0
	}
	return max(float64(a.ns)/float64(a.n)-ld.spanNs, 0)
}

// perOp times n calls of fn and reports host ns per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(now()-t0) / float64(n)
}

func must(err error) {
	if err != nil {
		panic("bench ladder: " + err.Error())
	}
}

// runLadder drives every rung once. depth is the event-queue depth of the
// workload being traced, for the sim rung.
func runLadder(sc scale, seed int64, depth int) ladder {
	var ld ladder
	n := sc.ladderOps
	g, lat := sc.geom, flash.LatenciesFor(flash.TLC)
	// Random keys are drawn before any rung is timed: key(i, m) is the i-th
	// one reduced to [0, m).
	rnd := rand.New(rand.NewSource(seed))
	keys := make([]int64, max(n, 1))
	for i := range keys {
		keys[i] = rnd.Int63()
	}
	key := func(i int, m int64) int64 { return keys[i%len(keys)] % m }

	// The clock: empty spans on a private tracer.
	tr := &tracer{on: true}
	for i := 0; i < 1024; i++ {
		id, t0 := tr.begin(kBatch, -1)
		tr.end(kBatch, id, t0)
	}
	ld.spanNs = float64(tr.acc[kBatch].ns) / float64(tr.acc[kBatch].n)

	// sim: self-rescheduling no-op events at the workload's queue depth.
	{
		loop := sim.NewLoop()
		left := n
		var step func(at sim.Time)
		step = func(at sim.Time) {
			if left > 0 {
				left--
				loop.At(at+sim.Time(depth), step)
			}
		}
		for i := 0; i < depth; i++ {
			loop.At(sim.Time(i), step)
		}
		m0, _ := heapCounters()
		t0 := now()
		loop.Run()
		ns := now() - t0
		m1, _ := heapCounters()
		ld.simLoopNs = float64(ns) / float64(loop.Steps())
		ld.simLoopAllocs = float64(m1-m0) / float64(loop.Steps())
	}

	// workload: the generators the event-driven workloads draw from.
	{
		src := workload.NewSource(seed)
		uni := workload.NewUniform(src, g.TotalPages())
		poi := workload.NewPoisson(src, sc.mixedReads)
		zipf := workload.NewZipf(src, g.TotalPages(), 0.99)
		var sink int64
		ld.uniformNs = perOp(n, func(int) { sink += uni.Next() })
		var at sim.Time
		ld.poissonNs = perOp(n, func(int) { at = poi.Next(at) })
		ld.zipfNs = perOp(n, func(int) { sink += zipf.Next() })
		_ = sink
	}

	// flash: programs striped across every block, reads of what was
	// programmed, copies from the low half of the blocks to the high half,
	// erases of every block touched.
	{
		blocks := g.TotalBlocks()
		n := min(n, blocks/2*g.PagesPerBlock)
		t0 := now()
		chip := flash.New(g, lat)
		ld.flashNewS = seconds(now() - t0)
		half := blocks / 2
		var at sim.Time
		var err error
		ld.flashProgramNs = perOp(n, func(i int) {
			at, err = chip.ProgramPage(at, i%half, i/half)
			must(err)
		})
		ld.flashReadNs = perOp(n, func(i int) {
			j := int(key(i, int64(n)))
			_, err = chip.ReadPage(at, j%half, j/half)
			must(err)
		})
		ld.flashCopyNs = perOp(n, func(i int) {
			at, err = chip.CopyPage(at, i%half, i/half, half+i%half, i/half)
			must(err)
		})
		touched := min(n, half)
		ld.flashEraseNs = perOp(2*touched, func(i int) {
			b := i
			if i >= touched {
				b = half + i - touched
			}
			_, err = chip.EraseBlock(at, b)
			must(err)
		})
	}

	// ftl: a sequential fill, reads of it, then overwrites once aging has
	// brought GC on, all on the run's geometry so O(blocks) costs show.
	{
		t0 := now()
		dev, err := ftl.NewDefault(g, lat, 0.07)
		must(err)
		ld.ftlNewS = seconds(now() - t0)
		capacity := dev.CapacityPages()
		var at sim.Time
		ld.ftlSeqWriteNs = perOp(int(capacity), func(i int) {
			at, err = dev.WritePage(at, int64(i), nil)
			must(err)
		})
		ld.ftlReadNs = perOp(n, func(i int) {
			_, _, err = dev.ReadPage(at, key(i, capacity))
			must(err)
		})
		for i := int64(sc.convAge * float64(capacity)); i > 0; i-- {
			at, err = dev.WritePage(at, rnd.Int63n(capacity), nil)
			must(err)
		}
		ld.ftlGCWriteNs = perOp(n/8, func(i int) {
			at, err = dev.WritePage(at, key(i, capacity), nil)
			must(err)
		})
	}

	// zns: appends zone by zone, reads below the write pointers, simple
	// copies into fresh zones, then resets of every zone written.
	{
		t0 := now()
		dev, err := zns.New(zns.Config{Geom: g, Lat: lat, ZoneBlocks: 4, MaxActive: 14})
		must(err)
		ld.znsNewS = seconds(now() - t0)
		zp := int(dev.ZonePages())
		n := min(n, dev.NumZones()/2*zp) / zp * zp // whole zones, low half
		var at sim.Time
		ld.znsAppendNs = perOp(n, func(i int) {
			_, at, err = dev.Append(at, i/zp, nil)
			must(err)
		})
		ld.znsReadNs = perOp(n, func(i int) {
			_, _, err = dev.Read(at, key(i, int64(n)))
			must(err)
		})
		const chunk = 64
		src := make([]int64, chunk)
		first := n / zp // first zone above the ones written
		t0 = now()
		for lo := 0; lo+chunk <= n; lo += chunk {
			for j := range src {
				src[j] = int64(lo + j)
			}
			_, at, err = dev.SimpleCopy(at, src, first+lo/zp)
			must(err)
		}
		ld.znsSimpleCopyNs = float64(now()-t0) / float64(n/chunk*chunk)
		ld.znsResetNs = perOp(2*first, func(z int) {
			_, err = dev.Reset(at, z)
			must(err)
		})
	}

	// hostftl: the same three rungs as ftl, over a fresh zoned device.
	{
		dev, err := zns.New(zns.Config{Geom: g, Lat: lat, ZoneBlocks: 4, MaxActive: 14})
		must(err)
		h, err := hostftl.New(dev, hostftl.Config{OPFraction: 0.07})
		must(err)
		capacity := h.CapacityPages()
		var at sim.Time
		ld.hostSeqWriteNs = perOp(int(capacity), func(i int) {
			at, err = h.Write(at, int64(i), nil)
			must(err)
		})
		ld.hostReadNs = perOp(n, func(i int) {
			_, _, err = h.Read(at, key(i, capacity))
			must(err)
		})
		for i := int64(sc.znsChurn * float64(capacity)); i > 0; i-- {
			at, err = h.Write(at, rnd.Int63n(capacity), nil)
			must(err)
		}
		ld.hostGCWriteNs = perOp(n, func(i int) {
			at, err = h.Write(at, key(i, capacity), nil)
			must(err)
		})
	}

	// telemetry: the mixed drive, one instrument at a time. The five
	// armings take turns slice by slice so that host drift cancels.
	{
		short := sc
		short.mixedWarm, short.mixedSlice = sc.mixedSlice/4, sc.mixedSlice/4
		const slices = 9
		type rung struct {
			m       *mixedInst
			tr      *tracer
			ns      []float64
			ops     uint64
			mallocs uint64
		}
		var rungs [armFull + 1]rung
		for a := range rungs {
			m, err := newMixed(short, seed, arm(a))
			must(err)
			rungs[a] = rung{m: m, tr: &tracer{on: true}} // totals only: keeps no spans
		}
		for i := 0; i < slices; i++ {
			for a := range rungs {
				r := &rungs[a]
				m0, _ := heapCounters()
				out := r.m.slice(r.tr)
				m1, _ := heapCounters()
				r.ns = append(r.ns, float64(out.ns)/float64(out.ops))
				r.ops += out.ops
				r.mallocs += m1 - m0
			}
		}
		var perOpNs, driverNs, closureNs, allocs [armFull + 1]float64
		for a, r := range rungs {
			c := r.m.counts()
			closure := float64(c[cWrites])*ld.sampledMean(r.tr.acc[kWriteOp]) + float64(c[cReads])*ld.sampledMean(r.tr.acc[kReadOp])
			perOpNs[a] = median(r.ns)
			closureNs[a] = closure / float64(r.ops)
			driverNs[a] = (float64(r.tr.acc[kDrive].ns) - closure) / float64(r.ops)
			allocs[a] = float64(r.mallocs) / float64(r.ops)
		}
		ld.telAttrNs = perOpNs[armAttr] - perOpNs[armNil]
		ld.telCritNs = perOpNs[armAttrCrit] - perOpNs[armAttr]
		ld.telExemNs = perOpNs[armAttrExem] - perOpNs[armAttr]
		ld.telArmedNs = max(perOpNs[armFull]-perOpNs[armNil], 0)
		ld.telArmedAllocs = allocs[armFull] - allocs[armNil]
		ld.telDriverNs = max(driverNs[armFull]-driverNs[armNil], 0)
		ld.telClosureNs = max(closureNs[armFull]-closureNs[armNil], 0)
	}
	return ld
}
