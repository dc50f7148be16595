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
	m           map[extKey]int64
	// OnAlloc, if set, is invoked (with the lock held) whenever a new extent
	// is granted, so the caller can log it before any page of the extent is
	// written.
	OnAlloc func(rel uint32, ext uint32, base int64)
}

// NewAllocator manages a device of capacity pages with the given extent size
// (0 means DefaultExtentSize).
func NewAllocator(capacity int64, extentSize int) *Allocator {
	if extentSize <= 0 {
		extentSize = DefaultExtentSize
	}
	return &Allocator{extentSize: extentSize, capacity: capacity, scratchNext: capacity, m: map[extKey]int64{}}
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
// containing extent on first touch.
func (a *Allocator) DevicePage(rel uint32, block uint32) (int64, error) {
	k := extKey{rel, block / uint32(a.extentSize)}
	a.mu.Lock()
	defer a.mu.Unlock()
	base, ok := a.m[k]
	if !ok {
		if a.scratch {
			if a.scratchNext-int64(a.extentSize) < a.next {
				return 0, fmt.Errorf("space: device full (scratch region met logged region at page %d)", a.next)
			}
			a.scratchNext -= int64(a.extentSize)
			base = a.scratchNext
			a.m[k] = base
			// Deliberately no OnAlloc: scratch grants are follower-local.
		} else {
			if a.next+int64(a.extentSize) > a.scratchNext {
				return 0, fmt.Errorf("space: device full (capacity %d pages)", a.capacity)
			}
			base = a.next
			a.next += int64(a.extentSize)
			a.m[k] = base
			if a.OnAlloc != nil {
				a.OnAlloc(rel, k.ext, base)
			}
		}
	}
	return base + int64(block%uint32(a.extentSize)), nil
}

// Peek translates without allocating; ok is false if the extent was never
// granted (the block has never been written).
func (a *Allocator) Peek(rel uint32, block uint32) (int64, bool) {
	k := extKey{rel, block / uint32(a.extentSize)}
	a.mu.Lock()
	defer a.mu.Unlock()
	base, ok := a.m[k]
	if !ok {
		return 0, false
	}
	return base + int64(block%uint32(a.extentSize)), true
}

// Restore re-applies an extent grant during recovery. Idempotent.
func (a *Allocator) Restore(rel uint32, ext uint32, base int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m[extKey{rel, ext}] = base
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
	for k := range a.m {
		if k.rel == rel {
			n++
		}
	}
	return n
}
