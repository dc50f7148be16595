package engine

import (
	"sync"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// TestCommitBatchSingleFlush checks the group-commit primitive directly:
// M transactions committed as one batch cost exactly one commit flush.
func TestCommitBatchSingleFlush(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			const m = 16
			at := simclock.Time(0)
			txs := make([]*txn.Tx, m)
			for i := range txs {
				txs[i] = db.Begin()
				var err error
				at, err = tab.Insert(txs[i], at, tuple.Row{int64(i), "w", int64(i)})
				if err != nil {
					t.Fatal(err)
				}
			}
			before := db.Stats()
			errs := make([]error, len(txs))
			at = db.CommitBatch(txs, errs, at)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("tx %d: %v", i, err)
				}
			}
			after := db.Stats()
			if got := after.Commits - before.Commits; got != m {
				t.Errorf("commits += %d, want %d", got, m)
			}
			if got := after.CommitFlushes - before.CommitFlushes; got != 1 {
				t.Errorf("commit flushes += %d, want 1", got)
			}
			if after.CommitBatches-before.CommitBatches != 1 {
				t.Errorf("commit batches += %d, want 1", after.CommitBatches-before.CommitBatches)
			}
			// Everything in the batch is visible afterwards.
			check := db.Begin()
			for i := 0; i < m; i++ {
				if _, _, err := getRow(tab, check, at, int64(i)); err != nil {
					t.Errorf("key %d after batch commit: %v", i, err)
				}
			}
			db.Commit(check, at)
		})
	}
}

// slowWAL delegates to an in-memory device but burns real wall-clock time
// per page write, widening the window in which concurrent committers pile
// up behind the group-commit leader.
type slowWAL struct {
	device.BlockDevice
	delay time.Duration
}

func (d *slowWAL) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	time.Sleep(d.delay)
	return d.BlockDevice.WritePage(at, pageNo, p)
}

// TestGroupCommitCoalesces is the facade-level acceptance test: M
// concurrent committers must produce fewer than M WAL flushes, because the
// batcher's leader drains everyone who arrived while it was flushing.
func TestGroupCommitCoalesces(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := &slowWAL{BlockDevice: device.NewMem(page.Size, 1<<14), delay: 2 * time.Millisecond}
	opts := DefaultOptions(data, walDev)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "kv", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFacade(db)

	const m = 32
	start := make(chan struct{})
	var ready, wg sync.WaitGroup
	errCh := make(chan error, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := f.Begin()
			err := f.Insert(tab, tx, tuple.Row{int64(i), "w", int64(i)})
			// Park until every worker has written, then commit all at
			// once so the committers genuinely overlap.
			ready.Done()
			<-start
			if err != nil {
				errCh <- err
				return
			}
			errCh <- f.Commit(tx)
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := f.Stats()
	if st.Commits != m {
		t.Fatalf("commits = %d, want %d", st.Commits, m)
	}
	if st.CommitFlushes >= m {
		t.Errorf("commit flushes = %d for %d concurrent commits; group commit did not coalesce", st.CommitFlushes, m)
	}
	if st.CommitBatches == 0 {
		t.Errorf("no multi-transaction batches formed across %d concurrent commits", m)
	}
	t.Logf("%d commits -> %d flushes (%d multi-tx batches)", st.Commits, st.CommitFlushes, st.CommitBatches)
}
