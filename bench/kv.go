package main

import (
	"fmt"
	"sort"

	"blockhead/internal/core"
	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zkv"
	"blockhead/internal/zns"
)

// timedBackend is the timing decorator between zkv.DB and its storage
// backend: the one place the benchmark can sit between zkv and the device
// stacks, so zkv's self time is measured, not estimated.
type timedBackend struct {
	zkv.Backend
	k  *kvInst // for the running slice's tracer and the running op's span
	ns int64   // host time below this boundary, traced slices only
}

func (b *timedBackend) time(fn func()) {
	if !b.k.tr.recording() {
		fn()
		return
	}
	id, t0 := b.k.tr.begin(kBackend, b.k.op)
	fn()
	b.ns += b.k.tr.end(kBackend, id, t0)
}

func (b *timedBackend) WriteTable(at sim.Time, blob []byte, level int) (h zkv.TableHandle, done sim.Time, err error) {
	b.time(func() { h, done, err = b.Backend.WriteTable(at, blob, level) })
	return
}

func (b *timedBackend) ReadAt(at sim.Time, h zkv.TableHandle, off, n int) (done sim.Time, p []byte, err error) {
	b.time(func() { done, p, err = b.Backend.ReadAt(at, h, off, n) })
	return
}

func (b *timedBackend) Delete(at sim.Time, h zkv.TableHandle) (err error) {
	b.time(func() { err = b.Backend.Delete(at, h) })
	return
}

func (b *timedBackend) AppendWAL(at sim.Time, n int) (done sim.Time, err error) {
	b.time(func() { done, err = b.Backend.AppendWAL(at, n) })
	return
}

func (b *timedBackend) ResetWAL(at sim.Time) (err error) {
	b.time(func() { err = b.Backend.ResetWAL(at) })
	return
}

// kvSide is one backend's store with its own generators and clock.
type kvSide struct {
	name  string
	db    *zkv.DB
	back  *timedBackend
	chip  *flash.Device
	src   *workload.Source
	wKeys *workload.Uniform
	rKeys *workload.Uniform
	at    sim.Time
	last  core.MixedResult

	puts, gets, misses uint64
	tracedFlash        flash.OpCounts // flash ops during traced slices
}

// kvInst is E5 at a larger scale: the LSM store over both calibrated
// backends (scatter-fit trim-less conventional, 4-stream ZNS), each churned
// by one closed-loop overwriting writer beside two closed-loop readers
// through core.RunMixed, so a compaction speed-up that slows Get shows.
type kvInst struct {
	sides [2]*kvSide
	keys  [][]byte
	val   []byte
	puts  int // overwrites per backend per slice

	tr *tracer
	op int32 // the running Put or Get span, parent of the backend spans

	// Per-op host times over the traced slices, for the percentiles.
	putNs, getNs []int64
	stallNs      int64 // Put time in puts that flushed or compacted
}

func kvGeometry(blocksPerLUN int) flash.Geometry {
	return flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: blocksPerLUN, PagesPerBlock: 64, PageSize: 1024}
}

func newKVLSM(sc scale, seed int64) (instance, error) {
	k := &kvInst{puts: sc.kvPuts, val: make([]byte, 580), keys: make([][]byte, sc.kvKeys)}
	for i := range k.keys {
		k.keys[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	geom, lat := kvGeometry(sc.kvBlocks), flash.LatenciesFor(flash.TLC)
	// E5Backends' configurations, on the larger device.
	convDev, err := ftl.New(ftl.Config{Geom: geom, Lat: lat, OPFraction: 0.03,
		HotColdSeparation: true, TrimSupported: false, StoreData: true})
	if err != nil {
		return nil, err
	}
	cb, err := zkv.NewConvBackend(convDev, 64)
	if err != nil {
		return nil, err
	}
	cb.SetAllocPolicy(zkv.ScatterFit)
	znsDev, err := zns.New(zns.Config{Geom: geom, Lat: lat, ZoneBlocks: 2, StoreData: true})
	if err != nil {
		return nil, err
	}
	zb, err := zkv.NewZNSBackend(znsDev, 4)
	if err != nil {
		return nil, err
	}
	opts := zkv.Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10, TableTargetBytes: 32 << 10, Seed: seed}
	for i, b := range []struct {
		name string
		back zkv.Backend
		chip *flash.Device
	}{{"conv", cb, convDev.Flash()}, {"zns", zb, znsDev.Flash()}} {
		s := &kvSide{name: b.name, chip: b.chip, src: workload.NewSource(seed)}
		s.back = &timedBackend{Backend: b.back, k: k}
		s.db = zkv.Open(s.back, opts)
		s.wKeys = workload.NewUniform(s.src, int64(len(k.keys)))
		s.rKeys = workload.NewUniform(s.src, int64(len(k.keys)))
		for _, key := range k.keys {
			if s.at, err = s.db.Put(s.at, key, k.val); err != nil {
				return nil, fmt.Errorf("%s fill: %w", s.name, err)
			}
		}
		k.sides[i] = s
	}
	return k, nil
}

// churn overwrites k.puts keys on one side beside its readers.
func (k *kvInst) churn(s *kvSide, parent int32) core.MixedResult {
	left := k.puts
	stop := s.at
	res := core.RunMixed(core.MixedCfg{
		Writers: 1,
		Write: func(t sim.Time) (sim.Time, error) {
			if left == 0 {
				stop = t
				return t, core.ErrStopDrive // the write budget ends the slice
			}
			left--
			key := k.keys[s.wKeys.Next()]
			if !k.tr.recording() {
				return s.db.Put(t, key, k.val)
			}
			before := s.db.Stats()
			id, t0 := k.tr.begin(kPut, parent)
			k.op = id
			done, err := s.db.Put(t, key, k.val)
			ns := k.tr.end(kPut, id, t0)
			k.putNs = append(k.putNs, ns)
			if after := s.db.Stats(); after.Flushes != before.Flushes || after.Compactions != before.Compactions {
				k.stallNs += ns
			}
			return done, err
		},
		Readers: 2,
		Read: func(t sim.Time) (sim.Time, error) {
			key := k.keys[s.rKeys.Next()]
			var id int32
			var t0 int64
			traced := k.tr.recording()
			if traced {
				id, t0 = k.tr.begin(kGet, parent)
				k.op = id
			}
			done, _, found, err := s.db.Get(t, key)
			if traced {
				k.getNs = append(k.getNs, k.tr.end(kGet, id, t0))
			}
			if err != nil {
				return t, err
			}
			if !found {
				s.misses++ // every key was written in set-up: a miss is a failure
				return t + 1, nil
			}
			return done, nil
		},
		Start:    s.at,
		Duration: sim.Hour, // the write budget, not the clock, ends the drive
		Src:      s.src,
	})
	s.at = stop
	s.puts += res.WriteOps
	s.gets += res.ReadOps
	s.last = res
	return res
}

func (k *kvInst) slice(tr *tracer) sliceOut {
	k.tr = tr
	var out sliceOut
	sid, t0 := tr.begin(kSlice, -1)
	for _, s := range k.sides {
		flash0, misses0 := s.chip.Counts(), s.misses
		did, dt := tr.begin(kDrive, sid)
		res := k.churn(s, did)
		tr.end(kDrive, did, dt)
		out.ops += res.WriteOps + res.ReadOps
		out.failed += s.misses - misses0
		if res.Err != nil {
			out.failed++
		}
		if tr.recording() {
			now := s.chip.Counts()
			s.tracedFlash.Programs += now.Programs - flash0.Programs
			s.tracedFlash.Reads += now.Reads - flash0.Reads
			s.tracedFlash.Erases += now.Erases - flash0.Erases
		}
	}
	out.ns = tr.end(kSlice, sid, t0)
	k.tr = nil
	return out
}

func (k *kvInst) model() modelStats {
	var s modelStats
	for _, side := range k.sides {
		p := side.name + "."
		s.u(p+"Puts", side.puts)
		s.u(p+"Gets", side.gets)
		s.u(p+"Misses", side.misses)
		s.i(p+"VirtualTimeNs", int64(side.at))
		s.u(p+"Slice.WriteOps", side.last.WriteOps)
		s.u(p+"Slice.ReadOps", side.last.ReadOps)
		summaryStats(&s, p+"Slice.WriteLat", side.last.WriteLat)
		summaryStats(&s, p+"Slice.ReadLat", side.last.ReadLat)
		st := side.db.Stats()
		s.u(p+"zkv.Puts", st.Puts)
		s.u(p+"zkv.Gets", st.Gets)
		s.u(p+"zkv.Flushes", st.Flushes)
		s.u(p+"zkv.Compactions", st.Compactions)
		s.i(p+"zkv.TablesNow", int64(st.TablesNow))
		s.u(p+"zkv.CompactionReadBytes", st.CompactionReadBytes)
		s.u(p+"zkv.CompactionWrittenBytes", st.CompactionWrittenBytes)
		s.u(p+"zkv.FlushedBytes", st.FlushedBytes)
		s.u(p+"zkv.UserWrittenBytes", st.UserWrittenBytes)
		c := side.back.Counters()
		s.u(p+"HostWritePages", c.HostWritePages)
		s.u(p+"FlashProgramPages", c.FlashProgramPages)
		s.u(p+"GCCopyPages", c.GCCopyPages)
		s.u(p+"BlockErases", c.BlockErases)
		s.f(p+"WriteAmp", c.WriteAmp())
	}
	return s
}

func (k *kvInst) counts() layerCounts {
	var c layerCounts
	for _, s := range k.sides {
		c[cWrites] += s.puts
		c[cReads] += s.gets
		c.addFlash(s.chip.Counts())
		st := s.db.Stats()
		c[cZKVFlushes] += st.Flushes
		c[cZKVCompactions] += st.Compactions
		c[cZKVStoredBytes] += st.FlushedBytes + st.CompactionWrittenBytes
		c[cZKVUserBytes] += st.UserWrittenBytes
	}
	c[cEvents] = c[cWrites] + c[cReads]
	return c
}

// layers: every boundary here is a span. RunMixed minus its Put and Get
// closures is the driver (sim inside it is count x rung); the closures
// minus the backend decorator's spans is zkv; below the decorator, flash is
// count x rung and the rest of each side belongs to its device stack: ftl
// under the conventional backend, zns under the zoned one.
func (k *kvInst) layers(ld ladder, t traced, m metricSet) {
	c := t.counts
	ops := float64(c[cWrites] + c[cReads])
	closures := float64(t.acc[kPut].ns + t.acc[kGet].ns)
	backend := float64(t.acc[kBackend].ns)
	driver := max(float64(t.acc[kDrive].ns)-closures, 0)
	simNs := float64(c[cEvents]) * ld.simLoopNs
	coreSelf := fit(driver, &simNs)
	zkvSelf := max(closures-backend, 0)
	total := float64(t.ns)

	var flashNs float64
	stack := [2]float64{}
	for i, s := range k.sides {
		var fc layerCounts
		fc.addFlash(s.tracedFlash)
		f := ld.flashNs(fc)
		stack[i] = fit(float64(s.back.ns), &f)
		flashNs += f
	}
	m["sim.share"] = simNs / total
	m["core.share"] = coreSelf / total
	m["core.driver_self_ns_per_op"] = driver / ops
	m["zkv.share"] = zkvSelf / total
	m["zkv.self_ns_per_op"] = zkvSelf / ops
	m["zkv.backend_ns_per_op"] = backend / ops
	m["flash.share"] = flashNs / total
	m["ftl.share"] = stack[0] / total
	m["zns.share"] = stack[1] / total

	m["zkv.put_ns_p50"] = percentile(k.putNs, 50)
	m["zkv.put_ns_max"] = percentile(k.putNs, 100)
	m["zkv.get_ns_p50"] = percentile(k.getNs, 50)
	m["zkv.stall_share"] = float64(k.stallNs) / float64(max(t.acc[kPut].ns, 1))
	m["zkv.flushes"] = float64(c[cZKVFlushes])
	m["zkv.compactions"] = float64(c[cZKVCompactions])
	m["zkv.app_write_amp"] = float64(c[cZKVStoredBytes]) / float64(max(c[cZKVUserBytes], 1))
}

// percentile reports the p-th percentile of v by nearest rank, 0 if empty.
func percentile(v []int64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(len(s))*p/100+0.5) - 1
	return float64(s[min(max(rank, 0), len(s)-1)])
}
