package main

// Every host-side reading the benchmark takes lives in this file: wall
// clock, process CPU time, heap counters and peak resident memory. The
// simulator itself runs in virtual time (sim.Time); nothing read here ever
// feeds a simulated quantity, and no sim.Time is ever converted to or from
// a time.Duration.

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var epoch = time.Now() //simlint:allow determinism host-time benchmark: wall clock measures the simulator, never feeds it

// now reports monotonic host nanoseconds since process start.
func now() int64 {
	return int64(time.Since(epoch)) //simlint:allow determinism host-time benchmark: wall clock measures the simulator, never feeds it
}

// seconds converts host nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// cpuSeconds reports user+system CPU time consumed by this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapCounters reports cumulative heap allocations (objects, bytes). It
// stops the world, so callers read it between slices, never inside one.
func heapCounters() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// peakRSSMB reports the process's peak resident set in MiB: VmHWM on Linux,
// the Go runtime's total reservation elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
