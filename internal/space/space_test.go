package space

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestExtentAllocationContiguity(t *testing.T) {
	a := NewAllocator(10000, 64)
	// Blocks within one extent are contiguous device pages.
	p0, err := a.DevicePage(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p63, _ := a.DevicePage(1, 63)
	if p63 != p0+63 {
		t.Errorf("extent not contiguous: %d vs %d", p0, p63)
	}
	// Next extent of the same relation is a fresh grant.
	p64, _ := a.DevicePage(1, 64)
	if p64 == p0+64 {
		// May or may not be adjacent depending on interleaving; with no
		// other relation it IS adjacent.
	}
	if a.ExtentsOf(1) != 2 {
		t.Errorf("ExtentsOf = %d, want 2", a.ExtentsOf(1))
	}
}

func TestRelationsSeparated(t *testing.T) {
	a := NewAllocator(10000, 64)
	p1, _ := a.DevicePage(1, 0)
	p2, _ := a.DevicePage(2, 0)
	if p1 == p2 {
		t.Error("two relations share a device page")
	}
	// The paper: pages of different relations at different locations —
	// extents must not overlap.
	if p2 < p1+64 && p2 >= p1 {
		t.Errorf("extents overlap: rel1@%d rel2@%d", p1, p2)
	}
}

func TestOnAllocHookFiresOncePerExtent(t *testing.T) {
	a := NewAllocator(10000, 64)
	var grants []uint32
	a.OnAlloc = func(rel uint32, ext uint32, base int64) {
		grants = append(grants, ext)
	}
	for b := uint32(0); b < 200; b++ {
		if _, err := a.DevicePage(3, b); err != nil {
			t.Fatal(err)
		}
	}
	// 200 blocks / 64 per extent = 4 extents (0..3).
	if len(grants) != 4 {
		t.Errorf("grants = %v, want 4 extents", grants)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	a := NewAllocator(128, 64)
	if _, err := a.DevicePage(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DevicePage(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DevicePage(3, 0); err == nil {
		t.Error("third extent should exceed capacity")
	}
}

func TestRestoreIdempotent(t *testing.T) {
	a := NewAllocator(10000, 64)
	a.Restore(1, 0, 128)
	a.Restore(1, 0, 128)
	p, err := a.DevicePage(1, 10)
	if err != nil || p != 138 {
		t.Errorf("DevicePage after restore = %d,%v; want 138,nil", p, err)
	}
	if a.AllocatedPages() != 192 {
		t.Errorf("AllocatedPages = %d, want 192 (high-water past restored extent)", a.AllocatedPages())
	}
	// New grants go past the restored region.
	p2, _ := a.DevicePage(2, 0)
	if p2 < 192 {
		t.Errorf("new grant %d overlaps restored extent", p2)
	}
}

// Property: distinct (rel, block) pairs never map to the same device page.
func TestNoAliasingProperty(t *testing.T) {
	f := func(pairsRaw []uint16) bool {
		a := NewAllocator(1<<20, 16)
		seen := map[int64][2]uint32{}
		for _, pr := range pairsRaw {
			rel := uint32(pr >> 8)
			block := uint32(pr & 0xFF)
			p, err := a.DevicePage(rel, block)
			if err != nil {
				return true // capacity; fine
			}
			if prev, ok := seen[p]; ok {
				if prev != [2]uint32{rel, block} {
					return false
				}
			}
			seen[p] = [2]uint32{rel, block}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDevicePageAllocBudget pins the translation of a block in a granted
// extent at 0 allocations — and no mutex: it reads the published extent
// map — for a small relation id and a large one.
func TestDevicePageAllocBudget(t *testing.T) {
	a := NewAllocator(1<<20, 64)
	for _, rel := range []uint32{3, 5000} {
		want, err := a.DevicePage(rel, 100)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(1000, func() {
			if p, err := a.DevicePage(rel, 100); err != nil || p != want {
				t.Fatalf("DevicePage(%d, 100) = %d, %v; want %d", rel, p, err, want)
			}
		})
		if n != 0 {
			t.Errorf("relation %d: DevicePage on a granted extent allocates %v times, want 0", rel, n)
		}
	}
	// With the mutex held elsewhere, a granted extent still translates.
	a.mu.Lock()
	done := make(chan int64)
	go func() {
		p, _ := a.DevicePage(3, 100)
		done <- p
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DevicePage on a granted extent waits for the allocator mutex")
	}
	a.mu.Unlock()
	// A restored grant is published as well.
	a.Restore(7, 2, 1<<19)
	if p, ok := a.lookup(extKey{7, 2}); !ok || p != 1<<19 {
		t.Errorf("restored extent reads %d, %v from the published map; want %d, true", p, ok, 1<<19)
	}
	for rel, want := range map[uint32]int{3: 1, 5000: 1, 7: 1, 4: 0, 9000: 0} {
		if n := a.ExtentsOf(rel); n != want {
			t.Errorf("ExtentsOf(%d) = %d, want %d", rel, n, want)
		}
	}
}

// TestConcurrentGrantsAgree translates blocks of several relations, their ids
// far apart, from many goroutines while their extents are being granted (the
// map grows and is republished under the readers). Every goroutine must see
// every block at one page, no two blocks may share one, and -race must stay
// quiet.
func TestConcurrentGrantsAgree(t *testing.T) {
	const rels, blocks, workers = 6, 2048, 4
	a := NewAllocator(1<<20, 16)
	got := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pages := make([]int64, rels*blocks)
			for i := range pages {
				j := (i*7 + w*131) % len(pages) // each worker in its own order
				p, err := a.DevicePage(uint32(j%rels*700+1), uint32(j/rels))
				if err != nil {
					t.Error(err)
					return
				}
				pages[j] = p
			}
			got[w] = pages
		}(w)
	}
	wg.Wait()
	seen := map[int64]int{}
	for j, p := range got[0] {
		for w := 1; w < workers; w++ {
			if got[w][j] != p {
				t.Fatalf("block %d: worker 0 saw page %d, worker %d page %d", j, p, w, got[w][j])
			}
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("blocks %d and %d share page %d", prev, j, p)
		}
		seen[p] = j
	}
}
