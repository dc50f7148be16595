//go:build !unix || race

package buffer

// pagesOffHeap reports that this build keeps pages in a mapped arena. Race
// builds keep them on the heap: the race detector does not see accesses to
// memory outside it, so page-content races would go unreported.
const pagesOffHeap = false

func mapArena(int) []byte { return nil }

func unmapArena([]byte) {}
