//go:build !unix

package zkv

// mapChunk allocates a chunk on the heap where anonymous mappings are not
// available.
func mapChunk(n int) []byte { return make([]byte, n) }

// unmapChunk leaves a heap chunk to the collector.
func unmapChunk([]byte) {}
