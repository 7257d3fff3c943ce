// Package zcache implements the flash-cache designs behind the paper's
// §4.1 question "How can we best exploit transparent data placement?":
//
//   - SetAssoc: a set-associative cache that overwrites fixed slots in
//     place — small random writes that conventional FTLs amplify badly.
//     This is the design large-scale caches had to abandon.
//   - ConvBuffered: the RIPQ/CacheLib workaround on conventional SSDs —
//     "applications have evolved to use DRAM as a buffer to coalesce many
//     writes into one very large write". Write amplification is tamed, at
//     the cost of region-sized DRAM buffers per instance.
//   - ZNSCache: the zone-native design — objects append directly to open
//     zones and eviction is a zone reset. "With ZNS SSDs, these buffers
//     are no longer necessary," which is exactly what E-benchmarks measure
//     via DRAMBufferBytes.
//
// All three implement Cache, admit page-sized-to-region-sized objects, and
// evict FIFO (the common baseline policy for flash caches, which avoids
// fine-grained invalidation on flash).
package zcache

import (
	"errors"
	"fmt"

	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/zalloc"
	"blockhead/internal/zns"
)

// Stats counts cache activity.
type Stats struct {
	Inserts   uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRatio reports hits / lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a flash cache of page-granular objects.
type Cache interface {
	// Insert admits an object of the given size. Existing entries with the
	// same key are replaced logically (the old copy becomes dead).
	Insert(at sim.Time, key int64, pages int) (sim.Time, error)
	// Get probes the cache, reading the object from flash on a hit.
	Get(at sim.Time, key int64) (done sim.Time, hit bool, err error)
	// DRAMBufferBytes reports the write-buffer DRAM this design needs.
	DRAMBufferBytes() int64
	// Stats returns activity counters.
	Stats() Stats
	// Counters exposes device-level accounting (WA).
	Counters() *stats.Counters
	// Name identifies the design.
	Name() string
}

// Errors returned by caches.
var (
	ErrObjectTooLarge = errors.New("zcache: object exceeds region/zone size")
	ErrBadObjectSize  = errors.New("zcache: object size does not match slot size")
)

// ---------------------------------------------------------------------------
// Set-associative cache on a conventional SSD.

type setAssocEntry struct {
	key   int64
	valid bool
}

// SetAssoc maps each key to one of Ways slots in a set and overwrites slots
// in place. Every insert is a small random write.
type SetAssoc struct {
	dev      *ftl.Device
	objPages int
	ways     int
	sets     int64
	slots    []setAssocEntry // sets*ways
	fifoPtr  []int           // per-set round-robin victim pointer
	index    map[int64]int64 // key -> slot number
	stats    Stats
}

// NewSetAssoc builds a set-associative cache using the whole device.
func NewSetAssoc(dev *ftl.Device, objPages, ways int) (*SetAssoc, error) {
	if objPages < 1 || ways < 1 {
		return nil, fmt.Errorf("zcache: bad geometry objPages=%d ways=%d", objPages, ways)
	}
	slots := dev.CapacityPages() / int64(objPages)
	sets := slots / int64(ways)
	if sets < 1 {
		return nil, fmt.Errorf("zcache: device too small")
	}
	return &SetAssoc{
		dev:      dev,
		objPages: objPages,
		ways:     ways,
		sets:     sets,
		slots:    make([]setAssocEntry, sets*int64(ways)),
		fifoPtr:  make([]int, sets),
		index:    make(map[int64]int64),
	}, nil
}

// Name implements Cache.
func (c *SetAssoc) Name() string { return "conv-setassoc" }

// DRAMBufferBytes implements Cache: in-place writes need no write buffer.
func (c *SetAssoc) DRAMBufferBytes() int64 { return 0 }

// Stats implements Cache.
func (c *SetAssoc) Stats() Stats { return c.stats }

// Counters implements Cache.
func (c *SetAssoc) Counters() *stats.Counters { return c.dev.Counters() }

// Insert implements Cache.
func (c *SetAssoc) Insert(at sim.Time, key int64, pages int) (sim.Time, error) {
	if pages != c.objPages {
		return at, ErrBadObjectSize
	}
	set := key % c.sets
	way := c.fifoPtr[set]
	c.fifoPtr[set] = (way + 1) % c.ways
	slot := set*int64(c.ways) + int64(way)
	if old := c.slots[slot]; old.valid {
		delete(c.index, old.key)
		c.stats.Evictions++
	}
	if prev, ok := c.index[key]; ok {
		c.slots[prev].valid = false
		delete(c.index, key)
	}
	base := slot * int64(c.objPages)
	done := at
	for p := 0; p < c.objPages; p++ {
		d, err := c.dev.WritePage(at, base+int64(p), nil)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
	}
	c.slots[slot] = setAssocEntry{key: key, valid: true}
	c.index[key] = slot
	c.stats.Inserts++
	return done, nil
}

// Get implements Cache.
func (c *SetAssoc) Get(at sim.Time, key int64) (sim.Time, bool, error) {
	slot, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return at, false, nil
	}
	base := slot * int64(c.objPages)
	done := at
	for p := 0; p < c.objPages; p++ {
		d, _, err := c.dev.ReadPage(at, base+int64(p))
		if err != nil {
			return at, false, err
		}
		done = sim.Max(done, d)
	}
	c.stats.Hits++
	return done, true, nil
}

// ---------------------------------------------------------------------------
// Region-buffered cache on a conventional SSD (RIPQ/CacheLib style).

type loc struct {
	region int64
	off    int64
	pages  int
	inBuf  bool
}

// ConvBuffered coalesces inserts in a DRAM buffer and writes full regions
// sequentially; eviction recycles whole regions FIFO.
type ConvBuffered struct {
	dev         *ftl.Device
	regionPages int64
	numRegions  int64
	next        int64 // region to overwrite next
	bufFill     int64
	bufKeys     []int64
	index       map[int64]loc
	perRegion   [][]int64
	stats       Stats
}

// NewConvBuffered builds a region-buffered cache; regionPages is the DRAM
// coalescing buffer (and flash write) granularity.
func NewConvBuffered(dev *ftl.Device, regionPages int64) (*ConvBuffered, error) {
	n := dev.CapacityPages() / regionPages
	if n < 2 {
		return nil, fmt.Errorf("zcache: need >= 2 regions, have %d", n)
	}
	return &ConvBuffered{
		dev:         dev,
		regionPages: regionPages,
		numRegions:  n,
		index:       make(map[int64]loc),
		perRegion:   make([][]int64, n),
	}, nil
}

// Name implements Cache.
func (c *ConvBuffered) Name() string { return "conv-buffered" }

// DRAMBufferBytes implements Cache: one region buffer per instance — the
// DRAM the paper says ZNS reclaims.
func (c *ConvBuffered) DRAMBufferBytes() int64 {
	return c.regionPages * int64(c.dev.PageSize())
}

// Stats implements Cache.
func (c *ConvBuffered) Stats() Stats { return c.stats }

// Counters implements Cache.
func (c *ConvBuffered) Counters() *stats.Counters { return c.dev.Counters() }

// Insert implements Cache.
func (c *ConvBuffered) Insert(at sim.Time, key int64, pages int) (sim.Time, error) {
	if int64(pages) > c.regionPages {
		return at, ErrObjectTooLarge
	}
	if c.bufFill+int64(pages) > c.regionPages {
		var err error
		at, err = c.flush(at)
		if err != nil {
			return at, err
		}
	}
	if old, ok := c.index[key]; ok && old.inBuf {
		// Replacing a buffered entry: the old copy stays as dead buffer
		// space until the flush; simplest correct handling.
		delete(c.index, key)
	}
	c.index[key] = loc{off: c.bufFill, pages: pages, inBuf: true}
	c.bufKeys = append(c.bufKeys, key)
	c.bufFill += int64(pages)
	c.stats.Inserts++
	return at, nil
}

// flush writes the DRAM buffer to the next FIFO region, evicting that
// region's previous contents.
func (c *ConvBuffered) flush(at sim.Time) (sim.Time, error) {
	region := c.next
	c.next = (c.next + 1) % c.numRegions
	for _, k := range c.perRegion[region] {
		if l, ok := c.index[k]; ok && !l.inBuf && l.region == region {
			delete(c.index, k)
			c.stats.Evictions++
		}
	}
	c.perRegion[region] = c.perRegion[region][:0]
	base := region * c.regionPages
	done := at
	for p := int64(0); p < c.regionPages; p++ {
		d, err := c.dev.WritePage(at, base+p, nil)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
	}
	for _, k := range c.bufKeys {
		l, ok := c.index[k]
		if !ok || !l.inBuf {
			continue
		}
		c.index[k] = loc{region: region, off: l.off, pages: l.pages}
		c.perRegion[region] = append(c.perRegion[region], k)
	}
	c.bufKeys = c.bufKeys[:0]
	c.bufFill = 0
	return done, nil
}

// Get implements Cache.
func (c *ConvBuffered) Get(at sim.Time, key int64) (sim.Time, bool, error) {
	l, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return at, false, nil
	}
	if l.inBuf {
		c.stats.Hits++
		return at, true, nil // served from DRAM
	}
	base := l.region*c.regionPages + l.off
	done := at
	for p := 0; p < l.pages; p++ {
		d, _, err := c.dev.ReadPage(at, base+int64(p))
		if err != nil {
			return at, false, err
		}
		done = sim.Max(done, d)
	}
	c.stats.Hits++
	return done, true, nil
}

// ---------------------------------------------------------------------------
// Zone-native cache on a ZNS SSD.

// ZNSCache appends objects straight into open zones; eviction resets the
// oldest zone. No DRAM coalescing buffer exists — the zone write buffer
// lives on the device.
type ZNSCache struct {
	dev     *zns.Device
	za      *zalloc.Alloc // one slot, the zone being filled
	order   zalloc.Ring   // zones in fill order (FIFO)
	index   map[int64]loc
	perZone [][]int64
	stats   Stats
}

// NewZNSCache builds a zone-native cache using every zone of the device.
func NewZNSCache(dev *zns.Device) *ZNSCache {
	return &ZNSCache{
		dev:     dev,
		za:      zalloc.New(dev, 1),
		order:   zalloc.NewRing(dev.NumZones()),
		index:   make(map[int64]loc),
		perZone: make([][]int64, dev.NumZones()),
	}
}

// Name implements Cache.
func (c *ZNSCache) Name() string { return "zns" }

// DRAMBufferBytes implements Cache: nothing to coalesce.
func (c *ZNSCache) DRAMBufferBytes() int64 { return 0 }

// Stats implements Cache.
func (c *ZNSCache) Stats() Stats { return c.stats }

// Counters implements Cache.
func (c *ZNSCache) Counters() *stats.Counters { return c.dev.Counters() }

// Insert implements Cache.
func (c *ZNSCache) Insert(at sim.Time, key int64, pages int) (sim.Time, error) {
	if int64(pages) > c.dev.ZonePages() {
		return at, ErrObjectTooLarge
	}
	zone, err := c.zoneWithRoom(at, pages)
	if err != nil {
		return at, err
	}
	if old, ok := c.index[key]; ok && !old.inBuf {
		delete(c.index, key) // old copy is dead space until its zone resets
	}
	off := c.dev.WP(zone)
	done := at
	for p := 0; p < pages; p++ {
		_, d, err := c.dev.Append(at, zone, nil)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
	}
	c.index[key] = loc{region: int64(zone), off: off, pages: pages}
	c.perZone[zone] = append(c.perZone[zone], key)
	c.stats.Inserts++
	return done, nil
}

// zoneWithRoom returns a zone that can fit the object, evicting the oldest
// zone once the pool is empty.
func (c *ZNSCache) zoneWithRoom(at sim.Time, pages int) (int, error) {
	prev := c.za.Open[0]
	z, err := c.za.Room(at, 0, int64(pages))
	if !errors.Is(err, zalloc.ErrNoSpace) {
		if err == nil && z != prev {
			c.order.Push(z)
		}
		return z, err
	}
	victim, ok := c.order.Take(c.dev)
	if !ok {
		return -1, err
	}
	for _, k := range c.perZone[victim] {
		if l, ok := c.index[k]; ok && l.region == int64(victim) {
			delete(c.index, k)
			c.stats.Evictions++
		}
	}
	c.perZone[victim] = c.perZone[victim][:0]
	if err := c.za.Reset(at, victim); err != nil {
		return -1, err
	}
	c.order.Push(victim) // refilled next: the newest zone again
	return c.za.Room(at, 0, int64(pages))
}

// Get implements Cache.
func (c *ZNSCache) Get(at sim.Time, key int64) (sim.Time, bool, error) {
	l, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return at, false, nil
	}
	done := at
	for p := 0; p < l.pages; p++ {
		d, _, err := c.dev.Read(at, c.dev.LBA(int(l.region), l.off+int64(p)))
		if err != nil {
			return at, false, err
		}
		done = sim.Max(done, d)
	}
	c.stats.Hits++
	return done, true, nil
}
