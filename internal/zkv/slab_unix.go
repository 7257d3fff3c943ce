//go:build unix

package zkv

import "syscall"

// mapChunk maps n bytes of anonymous memory outside the Go heap. If the
// mapping fails it falls back to a heap allocation, which unmapChunk leaves
// to the collector.
func mapChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// unmapChunk unmaps a chunk mapChunk returned; a heap fallback is not a
// mapping, and Munmap refuses it.
func unmapChunk(b []byte) { _ = syscall.Munmap(b) }
