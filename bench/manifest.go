package main

import (
	"runtime"
	"runtime/debug"
)

// manifest is the host block every result and trace file carries: enough
// to tell whether two files are comparable.
type manifest struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Revision   string  `json:"git_revision"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Geometry   string  `json:"geometry"`
	// OpCounts is each workload's ops per measured slice, filled from the
	// runs themselves.
	OpCounts map[string]uint64 `json:"slice_ops,omitempty"`
}

// revision is set by -rev; without it the build's VCS stamp is used.
var revision string

func newManifest(opts runOpts) manifest {
	m := manifest{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Revision: revision, Seed: opts.seed, Seconds: opts.seconds,
		Scale: opts.sc.name, Geometry: opts.sc.geomName,
	}
	if m.Revision == "" {
		m.Revision = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					m.Revision = s.Value
				}
			}
		}
	}
	return m
}
