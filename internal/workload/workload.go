// Package workload provides the deterministic workload generators the
// experiments share: key distributions (uniform, zipfian, sequential,
// hot/cold), open-loop arrival processes (Poisson, bursty on/off), and
// object streams with lifetime classes for the placement studies (§4.1).
//
// Every generator is seeded explicitly; the same seed reproduces the same
// sequence, which keeps all experiment outputs stable.
package workload

import (
	"math/rand"

	"blockhead/internal/sim"
)

// Source is the deterministic randomness source generators share.
type Source struct {
	*rand.Rand
}

// NewSource returns a seeded source.
func NewSource(seed int64) *Source {
	return &Source{Rand: rand.New(rand.NewSource(seed))}
}

// KeyGen produces a stream of keys (logical pages, object IDs) in [0, N).
type KeyGen interface {
	Next() int64
	// N reports the key-space size.
	N() int64
}

// Uniform picks keys uniformly at random.
type Uniform struct {
	src *Source
	n   int64
}

// NewUniform returns a uniform key generator over [0, n).
func NewUniform(src *Source, n int64) *Uniform { return &Uniform{src: src, n: n} }

// Next implements KeyGen.
func (u *Uniform) Next() int64 { return u.src.Int63n(u.n) }

// N implements KeyGen.
func (u *Uniform) N() int64 { return u.n }

// Zipf picks keys with a zipfian popularity distribution, the standard
// skewed model for caches and key-value stores. Key 0 is the hottest.
type Zipf struct {
	z *rand.Zipf
	n int64
}

// NewZipf returns a zipfian generator over [0, n) with skew theta
// (typically 0.99 for YCSB-like workloads; must be > 1 per math/rand's
// parameterization, so theta <= 1 is mapped to 1.0001).
func NewZipf(src *Source, n int64, theta float64) *Zipf {
	if theta <= 1 {
		theta = 1.0001
	}
	return &Zipf{z: rand.NewZipf(src.Rand, theta, 1, uint64(n-1)), n: n}
}

// Next implements KeyGen.
func (z *Zipf) Next() int64 { return int64(z.z.Uint64()) }

// N implements KeyGen.
func (z *Zipf) N() int64 { return z.n }

// Sequential cycles through keys in order — the fill pattern.
type Sequential struct {
	next, n int64
}

// NewSequential returns a sequential generator over [0, n).
func NewSequential(n int64) *Sequential { return &Sequential{n: n} }

// Next implements KeyGen.
func (s *Sequential) Next() int64 {
	k := s.next
	s.next = (s.next + 1) % s.n
	return k
}

// N implements KeyGen.
func (s *Sequential) N() int64 { return s.n }

// HotCold picks from a hot set with probability hotProb and from the cold
// remainder otherwise — the classic skewed-write model for WA studies.
type HotCold struct {
	src     *Source
	n       int64
	hotKeys int64
	hotProb float64
}

// NewHotCold returns a generator where hotFrac of the keyspace receives
// hotProb of the accesses.
func NewHotCold(src *Source, n int64, hotFrac, hotProb float64) *HotCold {
	hot := int64(hotFrac * float64(n))
	if hot < 1 {
		hot = 1
	}
	return &HotCold{src: src, n: n, hotKeys: hot, hotProb: hotProb}
}

// Next implements KeyGen.
func (h *HotCold) Next() int64 {
	if h.src.Float64() < h.hotProb {
		return h.src.Int63n(h.hotKeys)
	}
	if h.hotKeys == h.n {
		return h.src.Int63n(h.n)
	}
	return h.hotKeys + h.src.Int63n(h.n-h.hotKeys)
}

// N implements KeyGen.
func (h *HotCold) N() int64 { return h.n }

// IsHot reports whether key falls in the hot set.
func (h *HotCold) IsHot(key int64) bool { return key < h.hotKeys }

// Poisson generates open-loop arrivals with exponential interarrival times.
type Poisson struct {
	src  *Source
	mean float64 // mean interarrival in ns
}

// NewPoisson returns an arrival process with the given rate in events per
// (virtual) second.
func NewPoisson(src *Source, ratePerSec float64) *Poisson {
	return &Poisson{src: src, mean: float64(sim.Second) / ratePerSec}
}

// Next returns the next arrival time strictly after now.
func (p *Poisson) Next(now sim.Time) sim.Time {
	d := sim.Time(p.src.ExpFloat64() * p.mean)
	if d < 1 {
		d = 1
	}
	return now + d
}

// Object is one item in a lifetime-classed object stream (§4.1): data
// written together that dies at a predictable time.
type Object struct {
	ID    int64
	Pages int
	// Class is the lifetime class the *host* knows (the placement hint).
	Class int
	// Death is the actual expiry time, drawn from the class's distribution.
	Death sim.Time
}

// ObjectGen produces objects from a mixture of lifetime classes. Class i
// has mean lifetime Lifetimes[i]; classes are drawn uniformly.
//
// The per-object lifetime is exponential around the class mean by default
// (maximal intra-class variance: the hardest case for hint-based
// placement). A Spread in (0, 1] switches to a uniform multiplicative
// spread — lifetime = mean * U[1-Spread, 1+Spread] — modeling workloads
// whose expirations are predictable (TTL caches, log retention).
type ObjectGen struct {
	src       *Source
	lifetimes []sim.Time
	pages     int
	spread    float64
	nextID    int64
}

// NewObjectGen returns a generator of fixed-size objects with the given
// per-class mean lifetimes and exponential intra-class variance.
func NewObjectGen(src *Source, pages int, lifetimes []sim.Time) *ObjectGen {
	if len(lifetimes) == 0 {
		panic("workload: need at least one lifetime class")
	}
	return &ObjectGen{src: src, lifetimes: lifetimes, pages: pages}
}

// NewObjectGenSpread is NewObjectGen with uniform +-spread lifetimes
// (spread in (0, 1]).
func NewObjectGenSpread(src *Source, pages int, lifetimes []sim.Time, spread float64) *ObjectGen {
	g := NewObjectGen(src, pages, lifetimes)
	if spread <= 0 || spread > 1 {
		panic("workload: spread must be in (0, 1]")
	}
	g.spread = spread
	return g
}

// Classes reports the number of lifetime classes.
func (g *ObjectGen) Classes() int { return len(g.lifetimes) }

// Next produces the next object, created at now.
func (g *ObjectGen) Next(now sim.Time) Object {
	class := g.src.Intn(len(g.lifetimes))
	mean := float64(g.lifetimes[class])
	var life sim.Time
	if g.spread > 0 {
		life = sim.Time(mean * (1 - g.spread + 2*g.spread*g.src.Float64()))
	} else {
		life = sim.Time(g.src.ExpFloat64() * mean)
	}
	if life < 1 {
		life = 1
	}
	obj := Object{ID: g.nextID, Pages: g.pages, Class: class, Death: now + life}
	g.nextID++
	return obj
}

// ExpMean draws an exponential sample with the given mean — exposed for
// drivers that need ad-hoc service times.
func (s *Source) ExpMean(mean sim.Time) sim.Time {
	d := sim.Time(s.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
