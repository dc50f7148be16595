package core

import (
	"sync"
	"sync/atomic"

	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/txn"
)

// ScanVIDRange resolves the data items with lo <= VID < hi to their visible
// versions, exploiting the VIDmap's sequential bucket layout (Section 4.1.3:
// "queries on VID ranges are also facilitated"). fn returning false stops
// the scan.
func (r *Relation) ScanVIDRange(tx *txn.Tx, at simclock.Time, lo, hi uint64, fn func(vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	if max := r.vmap.MaxVID(); hi > max {
		hi = max
	}
	ra := int(r.readahead.Load())
	t := at
	for vid := lo; vid < hi; vid++ {
		if a, b := stageWindow(int(vid-lo), int(hi-lo), ra); a < b {
			r.prefetchVIDs(t, b-a, func(j int) uint64 { return lo + uint64(a+j) })
		}
		if _, ok := r.vmap.Get(vid); !ok {
			continue
		}
		hdr, payload, t2, found, err := r.chainLookup(tx, t, vid)
		t = t2
		if err != nil {
			return t, err
		}
		if !found || hdr.Tombstone() {
			continue
		}
		if !fn(vid, page.InvalidTID, payload) {
			return t, nil
		}
	}
	return t, nil
}

// ParallelScan is the parallel variant of Algorithm 1. The paper notes the
// VIDmap access path "is parallelizable and therefore complements the
// parallelism of the Flash storage": the VID space is partitioned across
// `parallelism` workers that resolve chains concurrently. Results are
// delivered to fn from multiple goroutines; fn must be safe for concurrent
// use, and fn returning false stops every worker at its next item. The
// returned virtual time is the max over the workers' partitions — the
// wall-clock of a parallel scan.
func (r *Relation) ParallelScan(tx *txn.Tx, at simclock.Time, parallelism int, fn func(vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	max := r.vmap.MaxVID()
	if max == 0 {
		return at, nil
	}
	chunk := (max + uint64(parallelism) - 1) / uint64(parallelism)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		latest   = at
		firstErr error
		stop     atomic.Bool
	)
	for w := 0; w < parallelism; w++ {
		lo := uint64(w) * chunk
		hi := lo + chunk
		if hi > max {
			hi = max
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			t, err := r.ScanVIDRange(tx, at, lo, hi, func(vid uint64, tid page.TID, payload []byte) bool {
				if stop.Load() || !fn(vid, tid, payload) {
					stop.Store(true)
					return false
				}
				return true
			})
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if t > latest {
				latest = t
			}
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	return latest, firstErr
}

// ChainLength walks vid's full physical chain and reports its length
// (diagnostics).
func (r *Relation) ChainLength(at simclock.Time, vid uint64) (int, simclock.Time, error) {
	tid, ok := r.vmap.Get(vid)
	if !ok {
		return 0, at, nil
	}
	n := 0
	t := at
	for tid.Valid() {
		hdr, _, t2, err := r.fetch(t, tid)
		t = t2
		if err != nil {
			return n, t, err
		}
		n++
		tid = hdr.Pred
	}
	return n, t, nil
}
