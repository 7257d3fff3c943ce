package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zcache"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "X6",
		Title:      "Extension: reclaiming the flash cache's DRAM buffer (§4.1)",
		PaperClaim: "\"applications have evolved to use DRAM as a buffer to coalesce many writes into one very large write. With ZNS SSDs, these buffers are no longer necessary.\"",
		Run:        runX6,
	})
}

func x6Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 32, PagesPerBlock: 64, PageSize: 4096}
}

const (
	x6ObjPages = 4
	x6Keys     = 4000
)

// X6Drive runs a zipfian get-or-insert workload through one cache design
// and reports its hit ratio, device WA, and coalescing DRAM.
func X6Drive(c zcache.Cache, ops int, seed int64) (hit, wa float64, dramKiB float64, err error) {
	src := workload.NewSource(seed)
	keys := workload.NewZipf(src, x6Keys, 0.99)
	var at sim.Time
	for i := 0; i < ops; i++ {
		k := keys.Next()
		done, isHit, gerr := c.Get(at, k)
		if gerr != nil {
			return 0, 0, 0, gerr
		}
		at = done
		if !isHit {
			if at, err = c.Insert(at, k, x6ObjPages); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	return c.Stats().HitRatio(), c.Counters().WriteAmp(),
		float64(c.DRAMBufferBytes()) / 1024, nil
}

func runX6(cfg Config) (Report, error) {
	r := Report{
		ID:         "X6",
		Title:      "Flash cache designs: DRAM buffer vs write amplification",
		PaperClaim: "set-assoc: no DRAM but amplified writes; region-buffered: tame WA bought with DRAM; zone-native: both for free",
		Header:     []string{"Design", "Hit ratio", "Device WA", "Coalescing DRAM (KiB)"},
	}
	ops := 60000
	if cfg.Quick {
		ops = 20000
	}
	lat := flash.LatenciesFor(flash.TLC)

	mkConv := func() (*ftl.Device, error) {
		return ftl.NewDefault(x6Geometry(), lat, 0.11)
	}

	convSA, err := mkConv()
	if err != nil {
		return r, err
	}
	sa, err := zcache.NewSetAssoc(convSA, x6ObjPages, 4)
	if err != nil {
		return r, err
	}
	convCB, err := mkConv()
	if err != nil {
		return r, err
	}
	cb, err := zcache.NewConvBuffered(convCB, 256) // 1 MiB region buffer
	if err != nil {
		return r, err
	}
	zdev, err := zns.New(zns.Config{Geom: x6Geometry(), Lat: lat, ZoneBlocks: 4})
	if err != nil {
		return r, err
	}
	zc := zcache.NewZNSCache(zdev)

	// The caches are built up front, each on its own device, and each runs
	// as one part.
	caches := []zcache.Cache{sa, cb, zc}
	type row struct{ hit, wa, dram float64 }
	rows := make([]row, len(caches))
	tasks := make([]partTask, len(caches))
	for i, c := range caches {
		tasks[i] = part(&rows[i], func(pcfg Config) (row, error) {
			hit, wa, dram, err := X6Drive(c, ops, pcfg.Seed)
			if err != nil {
				return row{}, fmt.Errorf("%s: %w", c.Name(), err)
			}
			return row{hit, wa, dram}, nil
		})
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for i, c := range caches {
		r.AddRow(c.Name(), fmt.Sprintf("%.3f", rows[i].hit), fmt.Sprintf("%.2f", rows[i].wa),
			fmt.Sprintf("%.0f", rows[i].dram))
	}
	r.AddNote("zipfian get-or-insert, %d-page objects, identical flash under all three", x6ObjPages)
	r.AddNote("at fleet scale the region buffer is per cache instance: the DRAM §4.1 says ZNS reclaims")
	return r, nil
}
