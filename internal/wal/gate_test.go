package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
)

// slowLog is a Mem log whose writes take delay each and, with failFirst, the
// first of them fails.
func slowLog(delay time.Duration, failFirst error) *device.Wrap {
	dev := device.NewWrap(device.NewMem(page.Size, 1024))
	var writes atomic.Int64
	dev.SetWriteHook(func(int64) error {
		time.Sleep(delay)
		if writes.Add(1) == 1 {
			return failFirst
		}
		return nil
	})
	return dev
}

// commitAll has m goroutines each append a commit record and flush through
// it, all released at once, and returns each caller's LSN, the count its
// write carried and its error, plus whether its LSN was durable when it
// returned.
func commitAll(w *Writer, m int) (lsns []LSN, carried []int, errs []error, durable []bool) {
	lsns, carried, errs, durable = make([]LSN, m), make([]int, m), make([]error, m), make([]bool, m)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			lsns[i] = w.Append(&Record{Type: RecCommit, Tx: txn.ID(i + 1)})
			_, carried[i], errs[i] = w.FlushCommits(0, lsns[i])
			durable[i] = w.Durable() >= lsns[i]
		}(i)
	}
	close(start)
	wg.Wait()
	return
}

// TestFlushGateSharesWrites: m concurrent committers on a slow log share its
// writes. Every caller returns with its LSN durable, fewer than m device
// writes happen, and the counts the writing callers learn add up to the m
// commit records, each carried once.
func TestFlushGateSharesWrites(t *testing.T) {
	const m = 32
	dev := slowLog(2*time.Millisecond, nil)
	w := NewWriter(dev)
	_, carried, errs, durable := commitAll(w, m)
	total, writers := 0, 0
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !durable[i] {
			t.Errorf("caller %d returned before its LSN was durable", i)
		}
		if carried[i] > 0 {
			writers++
		}
		total += carried[i]
	}
	if got := dev.Stats().Writes; got >= m {
		t.Errorf("%d device writes for %d concurrent flushes; the gate shared none", got, m)
	}
	if total != m {
		t.Errorf("the writes carried %d commit records, want %d", total, m)
	}
	t.Logf("%d flushes -> %d device writes by %d callers", m, dev.Stats().Writes, writers)
}

// TestFlushGateFailedWrite: the caller whose write fails gets the error, a
// waiter that write would have covered writes for itself, and no caller
// returns nil before its LSN is durable.
func TestFlushGateFailedWrite(t *testing.T) {
	boom := errors.New("injected write failure")

	t.Run("covered waiter", func(t *testing.T) {
		dev := slowLog(20*time.Millisecond, boom)
		w := NewWriter(dev)
		lsnA := w.Append(&Record{Type: RecCommit, Tx: 1})
		lsnB := w.Append(&Record{Type: RecCommit, Tx: 2})
		errA := make(chan error, 1)
		go func() {
			_, err := w.Flush(0, lsnA) // its write carries both records, and fails
			errA <- err
		}()
		for {
			w.gate.Lock()
			flushing := w.flushing
			w.gate.Unlock()
			if flushing {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		_, n, err := w.FlushCommits(0, lsnB) // waits for A's write
		if err != nil {
			t.Fatalf("the waiter got %v; a failed write is its writer's error alone", err)
		}
		if w.Durable() < lsnB {
			t.Fatalf("waiter returned nil at durable %d, below its LSN %d", w.Durable(), lsnB)
		}
		if n != 2 {
			t.Errorf("the waiter's own write carried %d commit records, want 2 (the failed write's and its own)", n)
		}
		if err := <-errA; !errors.Is(err, boom) {
			t.Errorf("the failed write's caller got %v, want the injected failure", err)
		}
		if got := dev.Stats().Writes; got != 1 {
			t.Errorf("device saw %d successful writes, want 1 (the waiter's)", got)
		}
	})

	t.Run("concurrent callers", func(t *testing.T) {
		const m = 16
		w := NewWriter(slowLog(2*time.Millisecond, boom))
		_, carried, errs, durable := commitAll(w, m)
		failed, total := 0, 0
		for i := range errs {
			switch {
			case errors.Is(errs[i], boom):
				failed++
			case errs[i] != nil:
				t.Errorf("caller %d: %v", i, errs[i])
			case !durable[i]:
				t.Errorf("caller %d returned nil before its LSN was durable", i)
			}
			total += carried[i]
		}
		if failed != 1 {
			t.Errorf("%d callers got the failed write's error, want 1 (its writer)", failed)
		}
		if total != m {
			t.Errorf("the successful writes carried %d commit records, want %d", total, m)
		}
	})
}
