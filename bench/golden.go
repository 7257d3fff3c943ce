package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
)

// A stat is one simulated (model-output) statistic, kept as text so that
// equality is exact: virtual-time quantities are only ever compared, never
// timed, averaged or bounded.
type stat struct{ name, value string }

type modelStats []stat

func (s *modelStats) u(name string, v uint64) { *s = append(*s, stat{name, strconv.FormatUint(v, 10)}) }
func (s *modelStats) i(name string, v int64)  { *s = append(*s, stat{name, strconv.FormatInt(v, 10)}) }
func (s *modelStats) f(name string, v float64) {
	*s = append(*s, stat{name, strconv.FormatFloat(v, 'g', -1, 64)})
}
func (s *modelStats) str(name, v string) { *s = append(*s, stat{name, v}) }

func (s modelStats) asMap() map[string]string {
	m := make(map[string]string, len(s))
	for _, st := range s {
		m[st.name] = st.value
	}
	return m
}

// diffStats lists the names whose values differ between two stat sets.
func diffStats(got, want map[string]string) []string {
	var out []string
	for _, name := range sortedKeys(want) {
		if g, ok := got[name]; !ok || g != want[name] {
			out = append(out, fmt.Sprintf("%s: got %q want %q", name, got[name], want[name]))
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			out = append(out, fmt.Sprintf("%s: got %q, not pinned", name, got[name]))
		}
	}
	return out
}

// chain folds one slice's stats into the running digest, so a slice's
// digest pins every slice before it too.
func chain(prev string, s modelStats) string {
	h := sha256.New()
	h.Write([]byte(prev))
	for _, st := range s {
		h.Write([]byte(st.name))
		h.Write([]byte{'='})
		h.Write([]byte(st.value))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// golden pins one (workload, seed) at full scale on the default geometry:
// the stats after set-up, a digest after every measured slice, and the full
// stats at one early slice that every run reaches. A run measures for a
// fixed host time, so how many slices it completes depends on the host; it
// is checked against as many digests as it reaches.
type golden struct {
	Workload        string            `json:"workload"`
	Seed            int64             `json:"seed"`
	Geometry        string            `json:"geometry"`
	SliceOps        uint64            `json:"slice_ops"`
	Setup           map[string]string `json:"setup"`
	CheckpointSlice int               `json:"checkpoint_slice"`
	Checkpoint      map[string]string `json:"checkpoint"`
	SliceDigests    []string          `json:"slice_digests"`
}

//go:embed golden
var goldenFS embed.FS

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// loadGolden returns the pinned stats for (workload, seed), or nil when the
// pair is unpinned: only full-scale runs on the default geometry are pinned.
func loadGolden(workload string, seed int64, sc scale) (*golden, error) {
	if sc.name != "full" || sc.geomName != defaultGeometry {
		return nil, nil
	}
	b, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if err != nil {
		return nil, nil
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	return &g, nil
}

func (g *golden) write(dir string) error {
	return writeJSON(filepath.Join(dir, goldenName(g.Workload, g.Seed)), g)
}

// sha hex-encodes the SHA-256 of s.
func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
