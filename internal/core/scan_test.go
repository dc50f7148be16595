package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/simclock"
)

func loadItems(t *testing.T, e *env, n int) {
	t.Helper()
	tx := e.txm.Begin()
	at := simclock.Time(0)
	for i := 0; i < n; i++ {
		_, a, err := e.rel.Insert(tx, at, int64(i), payload(fmt.Sprintf("item-%04d", i)))
		at = a
		if err != nil {
			t.Fatal(err)
		}
	}
	e.txm.Commit(tx)
}

func TestScanVIDRange(t *testing.T) {
	e := newEnv(t)
	loadItems(t, e, 100)
	r := e.txm.Begin()
	var got []uint64
	_, err := e.rel.ScanVIDRange(r, 0, 20, 50, func(vid uint64, _ []byte) bool {
		got = append(got, vid)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || got[0] != 20 || got[len(got)-1] != 49 {
		t.Errorf("range scan = %d items [%d..%d], want 30 [20..49]", len(got), got[0], got[len(got)-1])
	}
	// hi beyond MaxVID clamps.
	n := 0
	_, err = e.rel.ScanVIDRange(r, 0, 90, 1<<40, func(uint64, []byte) bool { n++; return true })
	if err != nil || n != 10 {
		t.Errorf("clamped range = %d, err %v", n, err)
	}
	e.txm.Commit(r)
}

func TestScanVIDRangeEarlyStop(t *testing.T) {
	e := newEnv(t)
	loadItems(t, e, 20)
	r := e.txm.Begin()
	n := 0
	e.rel.ScanVIDRange(r, 0, 0, 20, func(uint64, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
	e.txm.Commit(r)
}

func TestParallelScanMatchesSequential(t *testing.T) {
	e := newEnv(t)
	loadItems(t, e, 500)
	// Delete a few, update a few: parallel scan must agree with Scan.
	at := simclock.Time(0)
	for i := 0; i < 50; i += 10 {
		tx := e.txm.Begin()
		var err error
		at, err = e.rel.DeleteByVID(tx, at, uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.txm.Commit(tx)
	}
	r := e.txm.Begin()
	want := map[uint64]string{}
	_, err := e.rel.Scan(r, at, func(vid uint64, pl []byte) bool {
		want[vid] = string(pl)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		got := map[uint64]string{}
		_, err := e.rel.ParallelScan(r, at, par, func(vid uint64, pl []byte) {
			mu.Lock()
			got[vid] = string(pl)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d items, want %d", par, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("parallelism %d: vid %d = %q, want %q", par, k, got[k], v)
			}
		}
	}
	e.txm.Commit(r)
}

func TestParallelScanWallClockBenefit(t *testing.T) {
	// The parallel scan's virtual completion time must not exceed the
	// sequential scan's: partitions overlap on the flash channels.
	e := newEnv(t)
	loadItems(t, e, 2000)
	r := e.txm.Begin()
	var n1 atomic.Int64
	seqEnd, err := e.rel.Scan(r, 0, func(uint64, []byte) bool { n1.Add(1); return true })
	if err != nil {
		t.Fatal(err)
	}
	var n2 atomic.Int64
	parEnd, err := e.rel.ParallelScan(r, 0, 8, func(uint64, []byte) { n2.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if n1.Load() != n2.Load() {
		t.Fatalf("counts differ: %d vs %d", n1.Load(), n2.Load())
	}
	if parEnd > seqEnd {
		t.Errorf("parallel scan virtual end %v > sequential %v", parEnd, seqEnd)
	}
	e.txm.Commit(r)
}

func TestChainLength(t *testing.T) {
	e := newEnv(t)
	setup := e.txm.Begin()
	vid, at, _ := e.rel.Insert(setup, 0, 1, payload("v"))
	e.txm.Commit(setup)
	for i := 0; i < 7; i++ {
		tx := e.txm.Begin()
		at, _ = e.rel.UpdateByVID(tx, at, vid, 1, func([]byte) ([]byte, int64, error) {
			return payload("v"), 1, nil
		})
		e.txm.Commit(tx)
	}
	n, _, err := e.rel.ChainLength(at, vid)
	if err != nil || n != 8 {
		t.Errorf("chain length = %d (%v), want 8", n, err)
	}
}
