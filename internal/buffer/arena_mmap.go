//go:build unix && !race

package buffer

import "syscall"

// pagesOffHeap reports that this build keeps pages in a mapped arena.
const pagesOffHeap = true

// mapArena maps size bytes of anonymous, private memory, or returns nil if
// the mapping fails (the pool then keeps its pages on the heap). The kernel
// backs a page of the mapping only once it is written.
func mapArena(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return mem
}

// unmapArena returns a mapArena mapping to the kernel.
func unmapArena(mem []byte) {
	_ = syscall.Munmap(mem) // only fails for a slice Mmap did not return
}
