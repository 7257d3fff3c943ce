package main

import (
	"math/rand"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

// batchOps is how many direct calls one span covers, so that recording
// stays far below a percent of a 0.7 us op.
const batchOps = 4096

// blockInst drives a block device by direct calls, no event loop: one
// closed-loop writer of uniform random overwrites with one uniform read
// issued beside each write. conv_gc and zns_host are this loop over the two
// stacks, fed the same raw key stream (reduced modulo each capacity).
type blockInst struct {
	capacity int64
	write    func(at sim.Time, lpn int64) (sim.Time, error)
	read     func(at sim.Time, lpn int64) (sim.Time, error)
	modelFn  func(*modelStats)
	countFn  func(*layerCounts)
	layerFn  func(ld ladder, t traced, m metricSet)

	rnd    *rand.Rand
	at     sim.Time // the writer's virtual clock
	wk, rk []int64  // this slice's keys, generated before timing starts

	writes, reads uint64
	readLat       sim.Time // sum of read latencies: pins read scheduling
}

// prepare fills the device sequentially, then ages it with overwrite x
// capacity uniform random overwrites so the measured slices see GC.
func (b *blockInst) prepare(seed int64, overwrite float64, pairs int) error {
	b.rnd = rand.New(rand.NewSource(seed))
	b.wk, b.rk = make([]int64, pairs), make([]int64, pairs)
	var err error
	for lpn := int64(0); lpn < b.capacity; lpn++ {
		if b.at, err = b.write(b.at, lpn); err != nil {
			return err
		}
	}
	for n := int64(overwrite * float64(b.capacity)); n > 0; n-- {
		if b.at, err = b.write(b.at, b.rnd.Int63()%b.capacity); err != nil {
			return err
		}
	}
	return nil
}

func (b *blockInst) slice(tr *tracer) sliceOut {
	for i := range b.wk {
		b.wk[i] = b.rnd.Int63() % b.capacity
		b.rk[i] = b.rnd.Int63() % b.capacity
	}
	var out sliceOut
	sid, t0 := tr.begin(kSlice, -1)
	for lo := 0; lo < len(b.wk); lo += batchOps {
		hi := min(lo+batchOps, len(b.wk))
		bid, bt := tr.begin(kBatch, sid)
		for i := lo; i < hi; i++ {
			done, err := b.write(b.at, b.wk[i])
			if err != nil {
				out.failed++
			} else {
				b.at = done
			}
			done, err = b.read(b.at, b.rk[i])
			if err != nil {
				out.failed++
			} else {
				b.readLat += done - b.at
			}
		}
		tr.end(kBatch, bid, bt)
	}
	out.ns = tr.end(kSlice, sid, t0)
	n := uint64(len(b.wk))
	b.writes += n
	b.reads += n
	out.ops = 2 * n
	return out
}

func (b *blockInst) model() modelStats {
	var s modelStats
	s.u("Writes", b.writes)
	s.u("Reads", b.reads)
	s.i("VirtualTimeNs", int64(b.at))
	s.i("ReadLatencySumNs", int64(b.readLat))
	b.modelFn(&s)
	return s
}

func (b *blockInst) counts() layerCounts {
	var c layerCounts
	c[cWrites], c[cReads] = b.writes, b.reads
	b.countFn(&c)
	return c
}

func (b *blockInst) layers(ld ladder, t traced, m metricSet) { b.layerFn(ld, t, m) }

func newConvGC(sc scale, seed int64) (instance, error) {
	dev, err := ftl.NewDefault(sc.geom, flash.LatenciesFor(flash.TLC), 0.07)
	if err != nil {
		return nil, err
	}
	b := &blockInst{
		capacity: dev.CapacityPages(),
		write:    func(at sim.Time, lpn int64) (sim.Time, error) { return dev.WritePage(at, lpn, nil) },
		read: func(at sim.Time, lpn int64) (sim.Time, error) {
			done, _, err := dev.ReadPage(at, lpn)
			return done, err
		},
		modelFn: func(s *modelStats) {
			c := dev.Counters()
			s.u("HostWritePages", c.HostWritePages)
			s.u("HostReadPages", c.HostReadPages)
			s.u("FlashProgramPages", c.FlashProgramPages)
			s.u("FlashReadPages", c.FlashReadPages)
			s.u("GCCopyPages", c.GCCopyPages)
			s.u("BlockErases", c.BlockErases)
			s.f("WriteAmp", c.WriteAmp())
			s.u("GCRuns", dev.GCRuns())
			s.i("FreeBlocks", int64(dev.FreeBlocks()))
		},
		countFn: func(c *layerCounts) {
			c.addFlash(dev.Flash().Counts())
			c[cFTLGCRuns] = dev.GCRuns()
			c[cFTLGCCopies] = dev.Counters().GCCopyPages
			c[cFTLHostWrites] = dev.Counters().HostWritePages
		},
		layerFn: convLayers,
	}
	return b, b.prepare(seed, sc.convAge, sc.convPairs)
}

// convLayers: the benchmark calls ftl, and ftl calls flash where no span can
// sit, so flash's time is its op counts times its standalone rungs and ftl
// keeps the rest of the batch spans.
func convLayers(ld ladder, t traced, m metricSet) {
	c := t.counts
	batch := float64(t.acc[kBatch].ns)
	flashNs := ld.flashNs(c)
	self := fit(batch, &flashNs)
	total := float64(t.ns)
	m["flash.share"] = flashNs / total
	m["ftl.share"] = self / total
	m["ftl.self_ns_per_write"] = self / float64(c[cWrites])
	m["ftl.gc_runs"] = float64(c[cFTLGCRuns])
	m["ftl.gc_copies_per_host_write"] = float64(c[cFTLGCCopies]) / float64(c[cFTLHostWrites])
}

func newZNSHost(sc scale, seed int64) (instance, error) {
	dev, err := zns.New(zns.Config{Geom: sc.geom, Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4, MaxActive: 14})
	if err != nil {
		return nil, err
	}
	h, err := hostftl.New(dev, hostftl.Config{OPFraction: 0.07})
	if err != nil {
		return nil, err
	}
	b := &blockInst{
		capacity: h.CapacityPages(),
		write:    func(at sim.Time, lpn int64) (sim.Time, error) { return h.Write(at, lpn, nil) },
		read: func(at sim.Time, lpn int64) (sim.Time, error) {
			done, _, err := h.Read(at, lpn)
			return done, err
		},
		modelFn: func(s *modelStats) {
			c := h.Counters()
			s.u("HostWritePages", h.HostWrites())
			s.u("HostReadPages", c.HostReadPages)
			s.u("FlashProgramPages", c.FlashProgramPages)
			s.u("FlashReadPages", c.FlashReadPages)
			s.u("GCCopyPages", c.GCCopyPages)
			s.u("BlockErases", c.BlockErases)
			s.f("WriteAmp", h.WriteAmp())
			s.u("GCResets", h.GCResets())
			s.u("Emergencies", h.Emergencies())
			s.u("ZoneResets", dev.Resets())
			s.u("ZoneAppends", dev.Appends())
			s.i("FreeZones", int64(h.FreeZones()))
		},
		countFn: func(c *layerCounts) {
			c.addFlash(dev.Flash().Counts())
			c[cZNSAppends], c[cZNSResets] = dev.Appends(), dev.Resets()
			c[cHostGCResets], c[cHostWrites] = h.GCResets(), h.HostWrites()
			c[cHostFlashPrograms] = h.Counters().FlashProgramPages
		},
		layerFn: znsHostLayers,
	}
	return b, b.prepare(seed, sc.znsChurn, sc.znsPairs)
}

// znsHostLayers: hostftl calls zns calls flash, both below where the
// benchmark can record, so both come from the ladder: flash as counts x
// flash rungs, zns as counts x (zns rung - the flash rung inside it), and
// hostftl keeps the rest of the batch spans.
func znsHostLayers(ld ladder, t traced, m metricSet) {
	c := t.counts
	batch := float64(t.acc[kBatch].ns)
	flashNs := ld.flashNs(c)
	znsNs := ld.znsSelfNs(c)
	self := fit(batch, &flashNs, &znsNs)
	total := float64(t.ns)
	m["flash.share"] = flashNs / total
	m["zns.share"] = znsNs / total
	m["hostftl.share"] = self / total
	m["hostftl.self_ns_per_write"] = self / float64(c[cWrites])
	m["hostftl.gc_resets"] = float64(c[cHostGCResets])
	m["hostftl.write_amp"] = float64(c[cHostFlashPrograms]) / float64(c[cHostWrites])
}
