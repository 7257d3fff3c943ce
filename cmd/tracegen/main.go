// Command tracegen generates synthetic block-level I/O traces and replays
// them against the simulated devices — the tooling for §4.2's question "can
// we systematically test representative and synthetic workloads to discover
// if any perform worse over ZNS?"
//
// Usage:
//
//	tracegen -out w.ztrc -ops 50000 -workload zipf       # record
//	tracegen -replay w.ztrc -device conv                 # replay on a conventional SSD
//	tracegen -replay w.ztrc -device zns                  # replay on block-on-ZNS
//	tracegen -ops 20000 -device both                     # generate in memory, compare
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/trace"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

const logicalPages = 12000

func main() {
	var (
		out    = flag.String("out", "", "write the generated trace to this file")
		replay = flag.String("replay", "", "replay this trace file instead of generating")
		ops    = flag.Int("ops", 20000, "operations to generate")
		wl     = flag.String("workload", "uniform", "uniform | zipf | seq")
		reads  = flag.Float64("reads", 0.3, "fraction of reads")
		device = flag.String("device", "both", "conv | zns | both")
		seed   = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := validate(*device, *reads, *ops); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}

	var traceBytes []byte
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fatal(err)
		}
		traceBytes = data
	} else {
		var buf bytes.Buffer
		if err := generate(&buf, *ops, *wl, *reads, *seed); err != nil {
			fatal(err)
		}
		traceBytes = buf.Bytes()
		if *out != "" {
			if err := os.WriteFile(*out, traceBytes, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d ops (%d bytes) to %s\n", *ops, len(traceBytes), *out)
			return
		}
	}

	if *device == "conv" || *device == "both" {
		if err := replayConv(bytes.NewReader(traceBytes)); err != nil {
			fatal(err)
		}
	}
	if *device == "zns" || *device == "both" {
		if err := replayZNS(bytes.NewReader(traceBytes)); err != nil {
			fatal(err)
		}
	}
}

// validate rejects flag values that would otherwise run to a silent no-op
// (an unknown -device replays on nothing) or a trace nobody asked for.
func validate(device string, reads float64, ops int) error {
	switch device {
	case "conv", "zns", "both":
	default:
		return fmt.Errorf("unknown -device %q (valid: conv, zns, both)", device)
	}
	if !(reads >= 0 && reads <= 1) { // also rejects NaN
		return fmt.Errorf("-reads %v is not a fraction (valid: 0 to 1)", reads)
	}
	if ops < 0 {
		return fmt.Errorf("-ops %d is negative (valid: 0 or more)", ops)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func generate(w io.Writer, ops int, wl string, readFrac float64, seed int64) error {
	src := workload.NewSource(seed)
	var keys workload.KeyGen
	switch wl {
	case "zipf":
		keys = workload.NewZipf(src, logicalPages, 0.99)
	case "seq":
		keys = workload.NewSequential(logicalPages)
	case "uniform":
		keys = workload.NewUniform(src, logicalPages)
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}
	tw := trace.NewWriter(w)
	arrivals := workload.NewPoisson(src, 5000)
	var at sim.Time
	for i := 0; i < ops; i++ {
		at = arrivals.Next(at)
		kind := trace.OpWrite
		if src.Float64() < readFrac {
			kind = trace.OpRead
		}
		if err := tw.Append(trace.Record{At: at, Kind: kind, LBA: keys.Next(), Pages: 1}); err != nil {
			return err
		}
	}
	return tw.Flush()
}

func geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096}
}

func replayConv(r io.Reader) error {
	dev, err := ftl.NewDefault(geometry(), flash.LatenciesFor(flash.TLC), 0.11)
	if err != nil {
		return err
	}
	written := make(map[int64]bool)
	var last sim.Time
	n, err := trace.Replay(trace.NewReader(r), func(rec trace.Record) error {
		at := sim.Max(rec.At, 0)
		switch rec.Kind {
		case trace.OpWrite:
			done, err := dev.WritePage(at, rec.LBA%dev.CapacityPages(), nil)
			written[rec.LBA%dev.CapacityPages()] = true
			last = sim.Max(last, done)
			return err
		case trace.OpRead:
			lpn := rec.LBA % dev.CapacityPages()
			if !written[lpn] {
				return nil
			}
			done, _, err := dev.ReadPage(at, lpn)
			last = sim.Max(last, done)
			return err
		case trace.OpTrim:
			return dev.Trim(at, rec.LBA%dev.CapacityPages(), 1)
		default:
			return nil
		}
	})
	if err != nil {
		return err
	}
	c := dev.Counters()
	fmt.Printf("conventional: %6d ops, finished at %8.1f ms, WA %.2f, GC runs %d\n",
		n, last.Millis(), c.WriteAmp(), dev.GCRuns())
	return nil
}

func replayZNS(r io.Reader) error {
	dev, err := zns.New(zns.Config{Geom: geometry(), Lat: flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 1})
	if err != nil {
		return err
	}
	f, err := hostftl.New(dev, hostftl.Config{
		OPFraction: 0.11, ZonesPerStream: 4, UseSimpleCopy: true,
		GCMode: hostftl.GCIncremental,
	})
	if err != nil {
		return err
	}
	written := make(map[int64]bool)
	var last sim.Time
	n, err := trace.Replay(trace.NewReader(r), func(rec trace.Record) error {
		at := sim.Max(rec.At, 0)
		switch rec.Kind {
		case trace.OpWrite:
			done, err := f.Write(at, rec.LBA%f.CapacityPages(), nil)
			written[rec.LBA%f.CapacityPages()] = true
			last = sim.Max(last, done)
			return err
		case trace.OpRead:
			lpn := rec.LBA % f.CapacityPages()
			if !written[lpn] {
				return nil
			}
			done, _, err := f.Read(at, lpn)
			last = sim.Max(last, done)
			return err
		case trace.OpTrim:
			return f.Trim(rec.LBA%f.CapacityPages(), 1)
		default:
			return nil
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("block-on-zns: %6d ops, finished at %8.1f ms, WA %.2f, zone resets %d\n",
		n, last.Millis(), f.WriteAmp(), f.GCResets())
	return nil
}
