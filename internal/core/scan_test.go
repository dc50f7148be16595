package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/txn"
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
	_, err := e.rel.ScanVIDRange(r, 0, 20, 50, func(vid uint64, _ page.TID, _ []byte) bool {
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
	_, err = e.rel.ScanVIDRange(r, 0, 90, 1<<40, func(uint64, page.TID, []byte) bool { n++; return true })
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
	e.rel.ScanVIDRange(r, 0, 0, 20, func(uint64, page.TID, []byte) bool { n++; return n < 5 })
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
		at, err = e.rel.deleteVID(tx, at, uint64(i), anyVersion)
		if err != nil {
			t.Fatal(err)
		}
		e.txm.Commit(tx)
	}
	r := e.txm.Begin()
	want := map[uint64]string{}
	_, err := e.rel.Scan(r, at, func(vid uint64, _ page.TID, pl []byte) bool {
		want[vid] = string(pl)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		got := map[uint64]string{}
		_, err := e.rel.ParallelScan(r, at, par, func(vid uint64, _ page.TID, pl []byte) bool {
			mu.Lock()
			got[vid] = string(pl)
			mu.Unlock()
			return true
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
	seqEnd, err := e.rel.Scan(r, 0, func(uint64, page.TID, []byte) bool { n1.Add(1); return true })
	if err != nil {
		t.Fatal(err)
	}
	var n2 atomic.Int64
	parEnd, err := e.rel.ParallelScan(r, 0, 8, func(uint64, page.TID, []byte) bool { n2.Add(1); return true })
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

// TestParallelScanSurfacesReadError fails the device read of one entrypoint page
// near the end of the VID range, with the pool cold, and checks that every
// VID-range scan hands that error to its caller: ParallelScan at several
// degrees of parallelism, and ScanVIDRange over the same range.
func TestParallelScanSurfacesReadError(t *testing.T) {
	errRead := errors.New("injected read failure")
	dev := device.NewWrap(device.NewMem(page.Size, 1<<16))
	bad := int64(-1)
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo <= bad && bad < pageNo+int64(n) {
			return errRead
		}
		return nil
	})
	e := newEnvOn(t, dev)
	const n = 2000
	loadItems(t, e, n)
	tid, ok := e.rel.VIDMap().Get(n - 3)
	if !ok {
		t.Fatal("no entrypoint")
	}
	var err error
	if bad, err = e.alloc.DevicePage(1, tid.Block); err != nil {
		t.Fatal(err)
	}

	check := func(name string, scan func(tx *txn.Tx) error) {
		t.Helper()
		coldPool(t, e, 0)
		r := e.txm.Begin()
		err := scan(r)
		e.txm.Commit(r)
		if !errors.Is(err, errRead) {
			t.Errorf("%s: err = %v, want the injected read failure", name, err)
		}
	}
	for _, par := range []int{1, 4, 8} {
		check(fmt.Sprintf("ParallelScan(%d)", par), func(tx *txn.Tx) error {
			_, err := e.rel.ParallelScan(tx, 0, par, func(uint64, page.TID, []byte) bool { return true })
			return err
		})
	}
	check("ScanVIDRange", func(tx *txn.Tx) error {
		_, err := e.rel.ScanVIDRange(tx, 0, 0, n, func(uint64, page.TID, []byte) bool { return true })
		return err
	})
}
