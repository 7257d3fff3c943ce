package core

import (
	"errors"

	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/telemetry"
	"blockhead/internal/workload"
)

// ErrStopDrive may be returned by any OpFunc to end the drive early
// without reporting a failure (e.g. a fixed write budget is exhausted).
var ErrStopDrive = errors.New("core: stop drive")

// OpFunc issues one device operation at the given virtual time and returns
// its completion time.
type OpFunc func(at sim.Time) (done sim.Time, err error)

// MixedResult holds the measurements of a RunMixed drive.
type MixedResult struct {
	WriteOps   uint64
	WriteLat   stats.Summary
	ReadOps    uint64
	ReadLat    stats.Summary
	Elapsed    sim.Time
	WriteScale float64 // writes per virtual second
	ReadScale  float64 // reads per virtual second
	Streams    []StreamResult
	Err        error
}

// StreamCfg is one additional measured IO stream with its own tenant
// identity: every op it issues is attributed (and blamed) under Tenant.
// Exactly one of Rate (open-loop Poisson, per second) or Workers
// (closed-loop) should be set.
type StreamCfg struct {
	Name    string
	Tenant  telemetry.TenantID
	Kind    telemetry.OpKind // OpWrite or OpRead: attribution bucket
	Op      OpFunc
	Rate    float64
	Workers int
}

// StreamResult holds one stream's measurements.
type StreamResult struct {
	Name   string
	Tenant telemetry.TenantID
	Ops    uint64
	Lat    stats.Summary
	Rate   float64 // ops per virtual second
}

// MixedCfg describes a mixed open/closed-loop drive: Writers closed-loop
// workers each repeatedly issuing Write, plus an open-loop Poisson stream
// of Reads at ReadRate (per second). Latencies recorded after Warmup.
type MixedCfg struct {
	// Writers > 0 runs closed-loop writers (device-saturating).
	Writers int
	// WriteRate > 0 instead issues open-loop Poisson writes at this rate
	// per second (fixed offered load, the usual benchmark setup for tail
	// latency studies). Writers and WriteRate are mutually exclusive.
	WriteRate float64
	Write     OpFunc
	// Readers > 0 runs closed-loop readers (bounded queue even against a
	// saturating writer, like RocksDB's readwhilewriting threads);
	// ReadRate > 0 instead issues open-loop Poisson reads.
	Readers  int
	ReadRate float64
	Read     OpFunc
	// WriteTenant and ReadTenant tag the primary streams' attribution
	// records; zero (the "sys" tenant) preserves the single-tenant
	// behaviour.
	WriteTenant telemetry.TenantID
	ReadTenant  telemetry.TenantID
	// Streams are additional measured IO streams, each with its own tenant
	// identity — the noisy-neighbor setup (E14).
	Streams []StreamCfg
	// Aux is an optional unmeasured open-loop stream at AuxRate — used for
	// host maintenance work that runs on its own schedule (§4.1).
	AuxRate float64
	Aux     OpFunc
	// Start is the virtual time the drive begins (after any pre-fill);
	// Warmup and Duration are offsets from Start.
	Start    sim.Time
	Duration sim.Time
	Warmup   sim.Time
	Src      *workload.Source
	// Probe, when non-nil, has its attribution sink bracket every measured
	// (post-warmup) read and write with a per-IO latency-attribution
	// record. Aux ops are never attributed.
	Probe *telemetry.Probe
}

// RunMixed drives the workload in strict virtual-time order and returns the
// measurements. Writer latency is per-operation sojourn (issue to
// completion); read latency includes any queueing behind in-flight device
// work (the tail-latency mechanism of §2.4).
func RunMixed(cfg MixedCfg) MixedResult {
	loop := sim.NewLoop()
	res := MixedResult{}
	wLat := stats.NewDist(4096)
	rLat := stats.NewDist(4096)
	deadline := cfg.Start + cfg.Duration
	warmup := cfg.Start + cfg.Warmup
	// instrument brackets each measured op with an attribution record; the
	// device layers in between charge the phases. End receives the raw
	// completion time, before the done<=now clamp below, so the sum
	// invariant is against the device's exact answer.
	attr := cfg.Probe.Attribution()
	instrument := func(op OpFunc, kind telemetry.OpKind, tenant telemetry.TenantID) OpFunc {
		if attr == nil || op == nil {
			return op
		}
		return func(at sim.Time) (sim.Time, error) {
			if at < warmup {
				return op(at)
			}
			attr.BeginTenant(kind, tenant, at)
			done, err := op(at)
			if err != nil {
				attr.Drop()
				return done, err
			}
			attr.End(done)
			return done, nil
		}
	}
	write := instrument(cfg.Write, telemetry.OpWrite, cfg.WriteTenant)
	read := instrument(cfg.Read, telemetry.OpRead, cfg.ReadTenant)
	fail := func(err error) {
		if errors.Is(err, ErrStopDrive) {
			loop.Stop()
			return
		}
		if res.Err == nil {
			res.Err = err
		}
		loop.Stop()
	}

	// Closed-loop workers (writers and readers share the machinery).
	closedLoop := func(n int, op OpFunc, ops *uint64, lat *stats.Dist) {
		for w := 0; w < n; w++ {
			var step func(now sim.Time)
			step = func(now sim.Time) {
				if now >= deadline {
					return
				}
				done, err := op(now)
				if err != nil {
					fail(err)
					return
				}
				if done <= now {
					done = now + 1
				}
				if now >= warmup {
					*ops++
					lat.Add(done - now)
				}
				loop.At(done, step)
			}
			loop.At(cfg.Start+sim.Time(w), step) // stagger starts by 1 ns each
		}
	}
	if cfg.Writers > 0 && cfg.Write != nil {
		closedLoop(cfg.Writers, write, &res.WriteOps, wLat)
	}
	if cfg.Readers > 0 && cfg.Read != nil {
		closedLoop(cfg.Readers, read, &res.ReadOps, rLat)
	}

	// Open-loop Poisson streams: each arrival event performs its op and
	// schedules the next arrival, so the queue stays O(1). A nil lat (with
	// nil ops) makes the stream unmeasured.
	openLoop := func(rate float64, op OpFunc, ops *uint64, lat *stats.Dist) {
		arrivals := workload.NewPoisson(cfg.Src, rate)
		var onArrival func(now sim.Time)
		schedule := func(prev sim.Time) {
			if t := arrivals.Next(prev); t < deadline {
				loop.At(t, onArrival)
			}
		}
		onArrival = func(now sim.Time) {
			schedule(now)
			done, err := op(now)
			if err != nil {
				fail(err)
				return
			}
			if lat != nil && now >= warmup {
				*ops++
				lat.Add(done - now)
			}
		}
		schedule(cfg.Start)
	}
	if cfg.ReadRate > 0 && cfg.Read != nil {
		openLoop(cfg.ReadRate, read, &res.ReadOps, rLat)
	}
	if cfg.WriteRate > 0 && cfg.Write != nil {
		openLoop(cfg.WriteRate, write, &res.WriteOps, wLat)
	}
	if cfg.AuxRate > 0 && cfg.Aux != nil {
		openLoop(cfg.AuxRate, cfg.Aux, nil, nil)
	}

	// Extra tenant streams share the loop machinery; each gets its own
	// counters and latency distribution.
	res.Streams = make([]StreamResult, len(cfg.Streams))
	streamLat := make([]*stats.Dist, len(cfg.Streams))
	for i, sc := range cfg.Streams {
		res.Streams[i] = StreamResult{Name: sc.Name, Tenant: sc.Tenant}
		streamLat[i] = stats.NewDist(4096)
		if sc.Op == nil {
			continue
		}
		op := instrument(sc.Op, sc.Kind, sc.Tenant)
		if sc.Workers > 0 {
			closedLoop(sc.Workers, op, &res.Streams[i].Ops, streamLat[i])
		} else if sc.Rate > 0 {
			openLoop(sc.Rate, op, &res.Streams[i].Ops, streamLat[i])
		}
	}

	loop.Run()
	res.Elapsed = cfg.Duration - cfg.Warmup
	res.WriteLat = wLat.Summary()
	res.ReadLat = rLat.Summary()
	res.WriteScale = stats.Rate(res.WriteOps, res.Elapsed)
	res.ReadScale = stats.Rate(res.ReadOps, res.Elapsed)
	for i := range res.Streams {
		res.Streams[i].Lat = streamLat[i].Summary()
		res.Streams[i].Rate = stats.Rate(res.Streams[i].Ops, res.Elapsed)
	}
	return res
}
