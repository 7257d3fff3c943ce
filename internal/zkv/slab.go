package zkv

import "runtime"

// slab keeps a backend's full table segments outside the Go heap. The
// collector paces the heap at about twice what is live, so a payload byte on
// the heap costs two of resident memory; a byte in a mapped chunk costs one.
// Slots of size bytes (segBytes of the device's page size) are cut from
// chunks of about slabChunkBytes, mapped as needed, and handed out last
// returned, first taken. A backend runs on one goroutine, so nothing locks.
//
// A slot is the backend's while a table holds it: the table record keeps it
// and the device keeps page-sized sub-slices of it as payloads. Delete
// returns a table's slots only after the device has dropped those payloads,
// so a returned slot is aliased by nothing a read can reach. Each chunk is
// unmapped by a cleanup on the device, the only other holder of slot
// aliases, once the device is unreachable (a finished E5 part).
type slab struct {
	size   int
	free   [][]byte           // returned slots, the last returned on top
	rest   []byte             // the newest chunk's uncut slots
	mapped func(chunk []byte) // arms a new chunk's unmapping
	poison bool               // tests: fill every returned slot with poisonByte
}

// slabChunkBytes is about how much a slab maps at a time: 32 slots of
// kv_lsm's and E5's 32 KiB segments.
const slabChunkBytes = 1 << 20

// poisonByte fills returned slots in poison mode, so a read of a slot after
// its table was deleted returns bytes no table decodes.
const poisonByte = 0xdb

// newSlab returns an empty slab of size-byte slots whose chunks are unmapped
// once dev is unreachable.
func newSlab[D any](dev *D, size int) *slab {
	return &slab{size: size, mapped: func(chunk []byte) { runtime.AddCleanup(dev, unmapChunk, chunk) }}
}

// take returns a free slot of s.size bytes, mapping a chunk when none is
// left. Its bytes are whatever the slot last held.
func (s *slab) take() []byte {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	if len(s.rest) == 0 {
		s.rest = mapChunk(max(1, slabChunkBytes/s.size) * s.size)
		s.mapped(s.rest)
	}
	slot := s.rest[:s.size:s.size]
	s.rest = s.rest[s.size:]
	return slot
}

// put returns slots to s. Nothing may alias them any more.
func (s *slab) put(slots [][]byte) {
	for _, slot := range slots {
		if s.poison {
			for i := range slot {
				slot[i] = poisonByte
			}
		}
		s.free = append(s.free, slot)
	}
}
