package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	dev := device.NewMem(page.Size, 1<<16)
	pool := buffer.New(buffer.Config{Frames: 512, HitCost: 0}, dev)
	alloc := space.NewAllocator(dev.NumPages(), 64)
	tr, _, err := New(0, 42, pool, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertSearchBasic(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	var err error
	for i := int64(0); i < 100; i++ {
		at, err = tr.Insert(at, i, uint64(i*10))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 100; i++ {
		got, at2, err := tr.SearchAppend(at, i, nil)
		at = at2
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != uint64(i*10) {
			t.Fatalf("Search(%d) = %v", i, got)
		}
	}
	if got, _, _ := tr.SearchAppend(at, 12345, nil); len(got) != 0 {
		t.Errorf("Search(missing) = %v", got)
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	for v := uint64(0); v < 20; v++ {
		at, _ = tr.Insert(at, 7, v)
	}
	got, _, err := tr.SearchAppend(at, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("Search dup = %d values, want 20", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Errorf("dup order: got[%d] = %d", i, v)
		}
	}
}

func TestSplitsAndHeight(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	const n = 5000 // forces multiple leaf + internal splits (leafCap ~510)
	var err error
	for i := 0; i < n; i++ {
		at, err = tr.Insert(at, int64(i*7%n), uint64(i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, want >= 2 after %d inserts", tr.Height(), n)
	}
	// Every key findable.
	for i := 0; i < n; i += 97 {
		got, at2, err := tr.SearchAppend(at, int64(i*7%n), nil)
		at = at2
		if err != nil || len(got) == 0 {
			t.Fatalf("Search(%d): %v %v", i*7%n, got, err)
		}
	}
}

func TestRangeScanOrdered(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	keys := rand.New(rand.NewSource(3)).Perm(2000)
	for _, k := range keys {
		at, _ = tr.Insert(at, int64(k), uint64(k))
	}
	var got []int64
	at, err := tr.Range(at, 500, 1499, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("range returned %d keys, want 1000", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("range scan out of order")
	}
	if got[0] != 500 || got[len(got)-1] != 1499 {
		t.Errorf("range bounds: %d..%d", got[0], got[len(got)-1])
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	for i := int64(0); i < 100; i++ {
		at, _ = tr.Insert(at, i, uint64(i))
	}
	n := 0
	tr.Range(at, 0, 99, func(int64, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	for i := int64(0); i < 50; i++ {
		at, _ = tr.Insert(at, i, uint64(i))
		at, _ = tr.Insert(at, i, uint64(i+1000))
	}
	at, err := tr.Delete(at, 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	got, at2, _ := tr.SearchAppend(at, 25, nil)
	at = at2
	if len(got) != 1 || got[0] != 1025 {
		t.Errorf("after delete Search(25) = %v", got)
	}
	if _, err := tr.Delete(at, 25, 25); err != ErrNotFound {
		t.Errorf("double delete err = %v, want ErrNotFound", err)
	}
	if tr.Len() != 99 {
		t.Errorf("Len = %d, want 99", tr.Len())
	}
}

func TestDeleteAcrossSiblings(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	// Enough duplicates of one key to span multiple leaves.
	for v := uint64(0); v < 1500; v++ {
		at, _ = tr.Insert(at, 5, v)
	}
	at, err := tr.Delete(at, 5, 1400)
	if err != nil {
		t.Fatalf("delete deep duplicate: %v", err)
	}
	got, _, _ := tr.SearchAppend(at, 5, nil)
	if len(got) != 1499 {
		t.Errorf("Search = %d values, want 1499", len(got))
	}
}

// Property: the tree agrees with a reference map on random workloads.
func TestTreeMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(t)
		ref := map[int64][]uint64{}
		at := simclock.Time(0)
		for op := 0; op < 800; op++ {
			k := int64(rng.Intn(100))
			switch rng.Intn(3) {
			case 0, 1: // insert
				v := uint64(rng.Intn(1000))
				at, _ = tr.Insert(at, k, v)
				ref[k] = append(ref[k], v)
			case 2: // delete one existing value, if any
				if vs := ref[k]; len(vs) > 0 {
					i := rng.Intn(len(vs))
					v := vs[i]
					if _, err := tr.Delete(at, k, v); err != nil {
						return false
					}
					ref[k] = append(vs[:i], vs[i+1:]...)
				}
			}
		}
		for k, vs := range ref {
			got, at2, err := tr.SearchAppend(at, k, nil)
			at = at2
			if err != nil {
				return false
			}
			sorted := append([]uint64(nil), vs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			// Search returns sorted-with-duplicates; compare multisets.
			if len(got) != len(sorted) {
				return false
			}
			for i := range got {
				if got[i] != sorted[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
