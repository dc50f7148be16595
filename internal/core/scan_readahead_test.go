package core

import (
	"fmt"
	"sync"
	"testing"

	"sias/internal/simclock"
)

// coldPool flushes every dirty page and drops the pool, so the next scan
// reads everything back from the device — the readahead pipeline's target
// scenario.
func coldPool(t *testing.T, e *env, at simclock.Time) {
	t.Helper()
	if _, err := e.pool.FlushAll(at); err != nil {
		t.Fatal(err)
	}
	e.pool.InvalidateAll()
}

// collectScan runs a full Scan and returns vid->payload.
func collectScan(t *testing.T, e *env, at simclock.Time) map[uint64]string {
	t.Helper()
	r := e.txm.Begin()
	defer e.txm.Commit(r)
	got := map[uint64]string{}
	if _, err := e.rel.Scan(r, at, func(vid uint64, pl []byte) bool {
		got[vid] = string(pl)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestScanReadaheadMatchesBaseline proves readahead is a pure performance
// hint: a cold scan with a readahead window returns exactly the rows of a
// cold scan without one, across Scan, ScanVIDRange, ParallelScan and
// RangeByKey — and actually drives the prefetcher.
func TestScanReadaheadMatchesBaseline(t *testing.T) {
	e := newEnv(t)
	const n = 800
	loadItems(t, e, n)
	at := simclock.Time(0)
	// Delete and update a few so visibility filtering is exercised too.
	for i := 0; i < 100; i += 10 {
		tx := e.txm.Begin()
		var err error
		at, err = e.rel.DeleteByVID(tx, at, uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.txm.Commit(tx)
	}

	coldPool(t, e, at)
	e.rel.SetReadahead(0)
	want := collectScan(t, e, at)
	if len(want) != n-10 {
		t.Fatalf("baseline scan saw %d rows, want %d", len(want), n-10)
	}

	coldPool(t, e, at)
	before := e.pool.Stats()
	e.rel.SetReadahead(32)
	got := collectScan(t, e, at)
	e.pool.DrainPrefetch()
	after := e.pool.Stats()

	if len(got) != len(want) {
		t.Fatalf("readahead scan saw %d rows, baseline %d", len(got), len(want))
	}
	for vid, pl := range want {
		if got[vid] != pl {
			t.Fatalf("vid %d = %q with readahead, %q without", vid, got[vid], pl)
		}
	}
	if after.PrefetchIssued == before.PrefetchIssued {
		t.Fatal("cold readahead scan issued no prefetches")
	}
	if after.IOPending != 0 {
		t.Fatalf("io pending = %d after drain", after.IOPending)
	}

	// ScanVIDRange with readahead matches a plain range.
	r := e.txm.Begin()
	var ra []uint64
	if _, err := e.rel.ScanVIDRange(r, at, 100, 300, func(vid uint64, _ []byte) bool {
		ra = append(ra, vid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	e.rel.SetReadahead(0)
	var plain []uint64
	if _, err := e.rel.ScanVIDRange(r, at, 100, 300, func(vid uint64, _ []byte) bool {
		plain = append(plain, vid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(r)
	if len(ra) != len(plain) {
		t.Fatalf("ScanVIDRange rows: readahead %d, plain %d", len(ra), len(plain))
	}
	for i := range ra {
		if ra[i] != plain[i] {
			t.Fatalf("ScanVIDRange order diverged at %d: %d vs %d", i, ra[i], plain[i])
		}
	}

	// ParallelScan with readahead matches the sequential baseline.
	coldPool(t, e, at)
	e.rel.SetReadahead(32)
	r2 := e.txm.Begin()
	var mu sync.Mutex
	par := map[uint64]string{}
	if _, err := e.rel.ParallelScan(r2, at, 4, func(vid uint64, pl []byte) bool {
		mu.Lock()
		par[vid] = string(pl)
		mu.Unlock()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(r2)
	e.pool.DrainPrefetch()
	if len(par) != len(want) {
		t.Fatalf("ParallelScan rows: readahead %d, baseline %d", len(par), len(want))
	}
	for vid, pl := range want {
		if par[vid] != pl {
			t.Fatalf("ParallelScan vid %d = %q, want %q", vid, par[vid], pl)
		}
	}

	// RangeByKey with readahead matches without.
	coldPool(t, e, at)
	rangeRows := func() []string {
		r := e.txm.Begin()
		defer e.txm.Commit(r)
		var rows []string
		if _, err := e.rel.RangeByKey(r, at, 200, 400, func(k int64, vid uint64, pl []byte) bool {
			rows = append(rows, fmt.Sprintf("%d:%d:%s", k, vid, pl))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	withRA := rangeRows()
	e.rel.SetReadahead(0)
	without := rangeRows()
	if len(withRA) != len(without) {
		t.Fatalf("RangeByKey rows: readahead %d, plain %d", len(withRA), len(without))
	}
	for i := range withRA {
		if withRA[i] != without[i] {
			t.Fatalf("RangeByKey row %d diverged: %q vs %q", i, withRA[i], without[i])
		}
	}
	e.pool.DrainPrefetch()
	if st := e.pool.Stats(); st.IOPending != 0 {
		t.Fatalf("io pending = %d at end", st.IOPending)
	}
}

// TestStageWindowCoversOnce walks a cursor over n entries and checks the
// readahead schedule: with a window every entry is staged exactly once, by
// the time the cursor reaches it, and at most two windows ahead of it — a
// 128-entry range at readahead 32 stages 128 VIDs, not the 224 of restaging
// the current window at every boundary. Without one nothing is staged.
func TestStageWindowCoversOnce(t *testing.T) {
	for _, ra := range []int{0, 1, 3, 32} {
		for _, n := range []int{0, 1, 2, 5, 31, 32, 33, 64, 100, 128} {
			staged := make([]int, n)
			total := 0
			for i := 0; i < n; i++ {
				lo, hi := stageWindow(i, n, ra)
				if lo > hi || lo < 0 || hi > n {
					t.Fatalf("ra=%d n=%d: cursor %d stages [%d, %d)", ra, n, i, lo, hi)
				}
				if lo < hi && (lo < i || hi > i+2*ra) {
					t.Fatalf("ra=%d n=%d: cursor %d stages [%d, %d), outside [cursor, cursor+2·ra)", ra, n, i, lo, hi)
				}
				for j := lo; j < hi; j++ {
					staged[j]++
					total++
				}
				if ra > 0 && staged[i] != 1 {
					t.Fatalf("ra=%d n=%d: entry %d staged %d times by the time the cursor reached it", ra, n, i, staged[i])
				}
			}
			if ra == 0 && total != 0 {
				t.Fatalf("n=%d: readahead off, yet %d entries staged", n, total)
			}
			if ra > 0 && total != n {
				t.Fatalf("ra=%d n=%d: %d entries staged, want each of the %d once", ra, n, total, n)
			}
		}
	}
}

// TestScanReadaheadEarlyStop verifies a readahead scan still honors the
// callback's stop signal.
func TestScanReadaheadEarlyStop(t *testing.T) {
	e := newEnv(t)
	loadItems(t, e, 100)
	e.rel.SetReadahead(16)
	r := e.txm.Begin()
	n := 0
	if _, err := e.rel.Scan(r, 0, func(uint64, []byte) bool { n++; return n < 7 }); err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(r)
	e.pool.DrainPrefetch()
	if n != 7 {
		t.Fatalf("visited %d rows, want 7", n)
	}
}

// TestReadaheadAllocBudget pins what a readahead window costs when its pages
// are already resident: nothing. A 32-entry RangeBySecondary on a warm pool
// allocates no more at readahead 32 than at readahead 0 — the window drops
// resident pages before building anything, so it neither gathers a page list
// nor calls the prefetcher.
func TestReadaheadAllocBudget(t *testing.T) {
	e := newEnv(t)
	at, err := e.rel.AddSecondary(0, 3, func([]byte) (int64, bool) { return 1, true })
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	loadItems(t, e, n)
	r := e.txm.Begin()
	defer e.txm.Commit(r)
	allocs := func(ra int) float64 {
		e.rel.SetReadahead(ra)
		return testing.AllocsPerRun(50, func() {
			rows := 0
			if _, err := e.rel.RangeBySecondary(r, at, 0, 1, 1, func(int64, uint64, []byte) bool {
				rows++
				return true
			}); err != nil || rows != n {
				t.Fatalf("range saw %d rows, err %v; want %d", rows, err, n)
			}
		})
	}
	off, on := allocs(0), allocs(n)
	if on > off {
		t.Errorf("readahead %d costs %.1f allocations per range, readahead 0 %.1f", n, on, off)
	}
	if st := e.pool.Stats(); st.PrefetchIssued != 0 {
		t.Errorf("a resident pool issued %d prefetches", st.PrefetchIssued)
	}
}
