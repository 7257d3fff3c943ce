// Package zkv is a from-scratch log-structured merge-tree key-value store
// with two storage backends: a conventional block SSD and a zone-native ZNS
// layout. It stands in for RocksDB in the paper's §2.4 evidence — "RocksDB's
// write amplification drops from 5x to 1.2x on ZNS SSDs", "2-4x lower read
// tail latency, 2x higher write throughput" — and for the §4.1 observation
// that LSM levels are natural lifetime classes.
//
// The store has the standard shape: a write-ahead log, a skiplist memtable,
// sorted-string tables flushed to L0, and leveled compaction with a 10x
// size ratio. What differs per backend is only placement: the conventional
// backend scatters tables over a flat LBA space (leaving garbage collection
// to the device FTL), while the ZNS backend groups tables into zones by
// level, so whole zones die together and are reset rather than collected.
package zkv

import (
	"bytes"
	"math/rand"
)

const maxSkipLevel = 12

type skipNode struct {
	key   []byte
	value []byte // nil means tombstone
	next  [maxSkipLevel]*skipNode
}

// memtable is a skiplist-backed sorted map. Values of nil are tombstones.
type memtable struct {
	head  *skipNode
	rng   *rand.Rand
	level int
	n     int
	bytes int64
}

func newMemtable(seed int64) *memtable {
	return &memtable{
		head:  &skipNode{},
		rng:   rand.New(rand.NewSource(seed)),
		level: 1,
	}
}

func (m *memtable) randomLevel() int {
	lvl := 1
	for lvl < maxSkipLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// put inserts or replaces key. value == nil records a tombstone.
func (m *memtable) put(key, value []byte) {
	var update [maxSkipLevel]*skipNode
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	if nxt := x.next[0]; nxt != nil && bytes.Equal(nxt.key, key) {
		m.bytes += int64(len(value) - len(nxt.value))
		nxt.key, nxt.value = key, value // the old key may share the old value's array
		return
	}
	lvl := m.randomLevel()
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level = lvl
	}
	node := &skipNode{key: key, value: value}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
	m.n++
	m.bytes += int64(len(key) + len(value) + 24)
}

// get returns the stored value and whether the key is present. A present
// key with nil value is a tombstone (found=true, value=nil).
func (m *memtable) get(key []byte) (value []byte, found bool) {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	if nxt := x.next[0]; nxt != nil && bytes.Equal(nxt.key, key) {
		return nxt.value, true
	}
	return nil, false
}

// len reports the number of entries (including tombstones).
func (m *memtable) len() int { return m.n }

// sizeBytes reports the approximate memory footprint.
func (m *memtable) sizeBytes() int64 { return m.bytes }

// iter returns an in-order iterator positioned before the first entry.
func (m *memtable) iter() *memIter { return &memIter{node: m.head} }

type memIter struct {
	node *skipNode
}

// next advances and reports whether an entry is available.
func (it *memIter) next() bool {
	it.node = it.node.next[0]
	return it.node != nil
}

func (it *memIter) key() []byte   { return it.node.key }
func (it *memIter) value() []byte { return it.node.value }
