package index

import (
	"sync"
	"testing"

	"sias/internal/simclock"
)

// TestConcurrentInsertSearch exercises the tree's mutex under parallel
// writers and readers (the race detector validates the locking).
func TestConcurrentInsertSearch(t *testing.T) {
	tr := newTree(t)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := simclock.Time(0)
			for i := 0; i < perWorker; i++ {
				key := int64(w*perWorker + i)
				var err error
				at, err = tr.Insert(at, key, uint64(key))
				if err != nil {
					t.Errorf("insert %d: %v", key, err)
					return
				}
				if i%10 == 0 {
					if _, _, err := tr.SearchAppend(at, key, nil); err != nil {
						t.Errorf("search %d: %v", key, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*perWorker {
		t.Errorf("Len = %d, want %d", tr.Len(), workers*perWorker)
	}
	// Every key present exactly once.
	for k := int64(0); k < workers*perWorker; k += 97 {
		vals, _, err := tr.SearchAppend(0, k, nil)
		if err != nil || len(vals) != 1 || vals[0] != uint64(k) {
			t.Fatalf("Search(%d) = %v, %v", k, vals, err)
		}
	}
}

// TestConcurrentMixedOps interleaves inserts, deletes and range scans.
func TestConcurrentMixedOps(t *testing.T) {
	tr := newTree(t)
	at := simclock.Time(0)
	for i := int64(0); i < 2000; i++ {
		at, _ = tr.Insert(at, i, uint64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := int64(w*200 + i)
				if _, err := tr.Delete(0, k, uint64(k)); err != nil {
					t.Errorf("delete %d: %v", k, err)
				}
				tr.Insert(0, k+10000, uint64(k))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			n := 0
			tr.Range(0, 0, 20000, func(int64, uint64) bool { n++; return true })
		}
	}()
	wg.Wait()
	if tr.Len() != 2000 {
		t.Errorf("Len = %d, want 2000 (800 deleted, 800 inserted)", tr.Len())
	}
}

// TestAddIsASetInsert: Add keeps one entry per <key, payload> however often
// and from however many goroutines at once it is offered, including for keys
// whose duplicates fill several leaves (where entries are ordered by payload
// only within a leaf).
func TestAddIsASetInsert(t *testing.T) {
	tr := newTree(t)
	const workers, keys, perKey = 6, 4, 700 // perKey > leafCap: duplicates span leaves
	var wg sync.WaitGroup
	var added [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := simclock.Time(0)
			// Every worker offers every entry, each in its own order.
			for i := 0; i < keys*perKey; i++ {
				n := (i*(2*w+1) + w*131) % (keys * perKey)
				ok, a, err := tr.Add(at, int64(n%keys), uint64(n/keys))
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				at = a
				if ok {
					added[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range added {
		total += n
	}
	if total != keys*perKey || tr.Len() != keys*perKey || tr.Inserts() != keys*perKey {
		t.Fatalf("Add reported %d insertions, Len %d, Inserts %d; want %d each", total, tr.Len(), tr.Inserts(), keys*perKey)
	}
	for k := int64(0); k < keys; k++ {
		vals, _, err := tr.SearchAppend(0, k, nil)
		if err != nil || len(vals) != perKey {
			t.Fatalf("key %d holds %d entries (%v), want %d", k, len(vals), err, perKey)
		}
		seen := map[uint64]bool{}
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("key %d holds payload %d twice", k, v)
			}
			seen[v] = true
		}
	}
	if ok, _, err := tr.Add(0, 2, 5); ok || err != nil {
		t.Errorf("re-adding an entry: added=%v err=%v", ok, err)
	}
}
