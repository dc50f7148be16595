// Package space maps relation-relative block numbers to device pages using
// extent-based allocation.
//
// Each relation's blocks are grouped into fixed-size extents placed
// contiguously on the device in allocation order. This reproduces the
// placement property the paper relies on for its trace figures: "tuples of
// different relations are not stored on the same page and pages that belong
// to different relations are placed at different locations", so each
// relation's appends form a distinct swimlane in the blocktrace.
//
// Extent grants are reported through an OnAlloc hook so the engine can WAL
// them (RecAllocExtent); recovery replays the grants to rebuild the mapping.
package space

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultExtentSize is the number of blocks per extent.
const DefaultExtentSize = 64

type extKey struct {
	rel uint32
	ext uint32
}

// Allocator assigns device pages to (relation, block) pairs.
type Allocator struct {
	mu         sync.Mutex
	extentSize int
	next       int64 // next free device page (bottom-up, WAL-logged grants)
	capacity   int64 // device pages available
	// scratchNext is the top of the unlogged scratch region: scratch grants
	// descend from it, logged grants may never reach it. It starts at
	// capacity, so the region is empty until scratch mode is used.
	scratchNext int64
	scratch     bool
	// rels is the extent map: (*rels)[rel][ext] holds base+1 of each extent
	// granted to rel, 0 for one not granted. DevicePage reads it
	// without the mutex. Every grant and Restore writes it under mu: an
	// entry in place, and a table too short for the entry as a longer copy
	// published in a new outer slice, so a reader holding an old copy sees
	// the grant as missing and looks again under mu.
	rels atomic.Pointer[[]extTable]
	// OnAlloc, if set, is invoked (with the lock held) whenever a new extent
	// is granted, so the caller can log it before any page of the extent is
	// written.
	OnAlloc func(rel uint32, ext uint32, base int64)
}

// extTable holds base+1 of each granted extent of one relation, by extent
// number; 0 marks an extent not granted.
type extTable []atomic.Int64

// NewAllocator manages a device of capacity pages with the given extent size
// (0 means DefaultExtentSize).
func NewAllocator(capacity int64, extentSize int) *Allocator {
	if extentSize <= 0 {
		extentSize = DefaultExtentSize
	}
	return &Allocator{extentSize: extentSize, capacity: capacity, scratchNext: capacity}
}

// SetScratch switches new-extent grants to the unlogged scratch region at the
// top of the device. A replication follower allocates its locally-rebuilt
// index and VID-map extents there: the grants are not WAL-logged (the
// follower's log must stay byte-identical to the primary's), and growing
// downward keeps them clear of the bottom-up region where replayed
// RecAllocExtent grants from the primary will land.
func (a *Allocator) SetScratch(on bool) {
	a.mu.Lock()
	a.scratch = on
	a.mu.Unlock()
}

// DevicePage translates (rel, block) to a device page, allocating the
// containing extent on first touch. An extent granted before takes no lock.
func (a *Allocator) DevicePage(rel uint32, block uint32) (int64, error) {
	k := extKey{rel, block / uint32(a.extentSize)}
	off := int64(block % uint32(a.extentSize))
	if base, ok := a.lookup(k); ok {
		return base + off, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	base, ok := a.lookup(k) // granted since the first look?
	if !ok {
		if a.scratch {
			if a.scratchNext-int64(a.extentSize) < a.next {
				return 0, fmt.Errorf("space: device full (scratch region met logged region at page %d)", a.next)
			}
			a.scratchNext -= int64(a.extentSize)
			base = a.scratchNext
			a.grantLocked(k, base)
			// Deliberately no OnAlloc: scratch grants are follower-local.
		} else {
			if a.next+int64(a.extentSize) > a.scratchNext {
				return 0, fmt.Errorf("space: device full (capacity %d pages)", a.capacity)
			}
			base = a.next
			a.next += int64(a.extentSize)
			a.grantLocked(k, base)
			if a.OnAlloc != nil {
				a.OnAlloc(rel, k.ext, base)
			}
		}
	}
	return base + off, nil
}

// lookup reads k's base from the extent map; ok is false if the map does
// not show the extent (not granted, or, without a.mu, granted after the
// reader's copy).
func (a *Allocator) lookup(k extKey) (int64, bool) {
	rels := a.rels.Load()
	if rels == nil || int(k.rel) >= len(*rels) {
		return 0, false
	}
	tab := (*rels)[k.rel]
	if int(k.ext) >= len(tab) {
		return 0, false
	}
	v := tab[k.ext].Load()
	return v - 1, v != 0
}

// grantLocked records k at base in the extent map. Caller holds a.mu.
func (a *Allocator) grantLocked(k extKey, base int64) {
	var rels []extTable
	if p := a.rels.Load(); p != nil {
		rels = *p
	}
	if int(k.rel) >= len(rels) || int(k.ext) >= len(rels[k.rel]) {
		grown := make([]extTable, max(len(rels), int(k.rel)+1))
		copy(grown, rels)
		if old := grown[k.rel]; int(k.ext) >= len(old) {
			tab := make(extTable, max(int(k.ext)+1, 2*len(old), 8))
			for i := range old {
				tab[i].Store(old[i].Load())
			}
			grown[k.rel] = tab
		}
		a.rels.Store(&grown)
		rels = grown
	}
	rels[k.rel][k.ext].Store(base + 1)
}

// Restore re-applies an extent grant during recovery. Idempotent.
func (a *Allocator) Restore(rel uint32, ext uint32, base int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.grantLocked(extKey{rel, ext}, base)
	if end := base + int64(a.extentSize); end > a.next {
		a.next = end
	}
}

// AllocatedPages reports how many device pages have been granted.
func (a *Allocator) AllocatedPages() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// ExtentsOf returns the number of extents granted to rel.
func (a *Allocator) ExtentsOf(rel uint32) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	if rels := a.rels.Load(); rels != nil && int(rel) < len(*rels) {
		for i := range (*rels)[rel] {
			if (*rels)[rel][i].Load() != 0 {
				n++
			}
		}
	}
	return n
}
