package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/workload"
	"blockhead/internal/zalloc"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E8",
		Title:      "Active-zone limits: static partitioning vs dynamic multiplexing (§4.2)",
		PaperClaim: "a fixed active-zone budget per application does not scale for bursty workloads; dynamic assignment multiplexes the scarce resource",
		Run:        runE8,
	})
}

// ZonePolicy decides how many zones a tenant's burst may open.
type ZonePolicy int

const (
	// StaticZones gives every tenant maxActive/tenants zones, always.
	StaticZones ZonePolicy = iota
	// DynamicZones grants up to the burst's desired parallelism from
	// whatever the shared budget has free right now.
	DynamicZones
)

// String implements fmt.Stringer.
func (p ZonePolicy) String() string {
	if p == DynamicZones {
		return "dynamic"
	}
	return "static"
}

const (
	e8Tenants    = 7
	e8MaxActive  = 14  // the paper's example device supports 14 active zones
	e8WantZones  = 8   // parallelism a burst would like
	e8BurstPages = 256 // <= one zone, so even a 1-zone grant can hold a burst
	e8MeanGapMs  = 180 // mean idle gap between a tenant's bursts
)

// E8Result is one policy's measurement.
type E8Result struct {
	Policy     ZonePolicy
	Bursts     uint64
	BurstP50   sim.Time
	BurstP99   sim.Time
	PagesPerSS float64
	// Device is the end-of-run device snapshot (wear, zone census, audit).
	Device DeviceState
}

// E8Run simulates bursty tenants sharing one device under a zone-grant
// policy and measures burst completion times.
func E8Run(policy ZonePolicy, cfg Config) (E8Result, error) {
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 8, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 32, PagesPerBlock: 256, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 1, // 512 zones, one LUN each
		MaxActive:  e8MaxActive,
	})
	if err != nil {
		return E8Result{}, err
	}
	// The auditor runs under both policies: E8 exercises the state machine
	// hardest (hundreds of zones cycling open->full->reset under an active
	// limit), so every transition is validated regardless of telemetry.
	aud := dev.AttachAuditor()
	loop := sim.NewLoop()
	src := workload.NewSource(cfg.Seed)
	lat := stats.NewDist(256)
	var bursts, pages uint64
	var opErr error
	fail := func(err error) {
		if opErr == nil {
			opErr = err
		}
		loop.Stop()
	}

	duration := 6 * sim.Second
	if cfg.Quick {
		duration = 1500 * sim.Millisecond
	}

	// Free-zone pool shared by all tenants.
	freeZones := zalloc.NewRing(dev.NumZones())
	for z := 0; z < dev.NumZones(); z++ {
		freeZones.Push(z)
	}
	takeZone := func(at sim.Time) (int, bool) {
		for {
			z, ok := freeZones.Take(dev)
			if !ok {
				return -1, false
			}
			if dev.State(z) != zns.Empty {
				if _, err := dev.Reset(at, z); err != nil {
					continue
				}
			}
			return z, true
		}
	}

	grant := func() int {
		if policy == StaticZones {
			return e8MaxActive / e8Tenants
		}
		avail := e8MaxActive - dev.ActiveZones()
		if avail > e8WantZones {
			avail = e8WantZones
		}
		return avail
	}

	// Each tenant: wait exp(gap) -> burst of e8BurstPages striped over its
	// granted zones -> finish zones -> repeat.
	for tn := 0; tn < e8Tenants; tn++ {
		var startBurst func(now sim.Time)
		startBurst = func(now sim.Time) {
			if now >= duration {
				return
			}
			k := grant()
			if k < 1 {
				// Budget exhausted right now: retry shortly.
				loop.At(now+sim.Millisecond, startBurst)
				return
			}
			var zones []int
			for i := 0; i < k; i++ {
				z, ok := takeZone(now)
				if !ok {
					fail(fmt.Errorf("e8: out of zones"))
					return
				}
				if err := dev.Open(now, z); err != nil {
					// Lost a race for the last active slot: put it back and
					// go with what we have.
					freeZones.Push(z)
					break
				}
				zones = append(zones, z)
			}
			if len(zones) == 0 {
				loop.At(now+sim.Millisecond, startBurst)
				return
			}
			burstStart := now
			perZone := e8BurstPages / len(zones)
			finished := 0
			var burstEnd sim.Time
			for _, z := range zones {
				z := z
				remaining := perZone
				var writeNext func(t sim.Time)
				writeNext = func(t sim.Time) {
					if remaining == 0 {
						// A zone that filled exactly is already Full (its
						// resources are released); Finish then reports
						// ErrBadState, which is fine.
						if err := dev.Finish(t, z); err != nil && dev.State(z) != zns.Full {
							fail(err)
							return
						}
						if t > burstEnd {
							burstEnd = t
						}
						// Return the zone to the shared pool; it is reset
						// lazily on its next draw.
						freeZones.Push(z)
						finished++
						if finished == len(zones) {
							bursts++
							pages += uint64(e8BurstPages)
							lat.Add(burstEnd - burstStart)
							gap := src.ExpMean(e8MeanGapMs * sim.Millisecond)
							loop.At(burstEnd+gap, startBurst)
						}
						return
					}
					_, done, err := dev.Append(t, z, nil)
					if err != nil {
						fail(fmt.Errorf("e8 append: %w", err))
						return
					}
					remaining--
					loop.At(done, writeNext)
				}
				loop.At(now, writeNext)
			}
		}
		loop.At(sim.Time(tn)*sim.Millisecond, startBurst)
	}
	loop.Run()
	if opErr != nil {
		return E8Result{}, opErr
	}
	if err := aud.Check(); err != nil {
		return E8Result{}, err
	}
	s := lat.Summary()
	return E8Result{
		Policy:     policy,
		Bursts:     bursts,
		BurstP50:   s.P50,
		BurstP99:   s.P99,
		PagesPerSS: stats.Rate(pages, duration),
		Device:     deviceState(policy.String(), dev, aud),
	}, nil
}

func runE8(cfg Config) (Report, error) {
	r := Report{
		ID:         "E8",
		Title:      "Bursty tenants under the active-zone limit",
		PaperClaim: "fixed per-tenant budgets throttle bursts; on-demand assignment multiplexes the limit",
		Header:     []string{"Policy", "Bursts", "Burst p50 (ms)", "Burst p99 (ms)", "Pages/s"},
	}
	policies := []ZonePolicy{StaticZones, DynamicZones}
	results := make([]E8Result, len(policies))
	var tasks []partTask
	for i, p := range policies {
		p := p
		tasks = append(tasks, part(&results[i], func(c Config) (E8Result, error) {
			return E8Run(p, c)
		}))
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for i, res := range results {
		r.AddRow(policies[i].String(), fmt.Sprint(res.Bursts),
			fmt.Sprintf("%.1f", res.BurstP50.Millis()),
			fmt.Sprintf("%.1f", res.BurstP99.Millis()),
			fmt.Sprintf("%.0f", res.PagesPerSS))
		r.AddDeviceState(res.Device)
	}
	r.AddNote("%d tenants, %d max active zones, bursts want %d-way parallelism",
		e8Tenants, e8MaxActive, e8WantZones)
	if len(results) == 2 && results[1].BurstP50 > 0 {
		r.AddNote("burst p50 speedup from multiplexing: %.2fx",
			float64(results[0].BurstP50)/float64(results[1].BurstP50))
	}
	return r, nil
}
