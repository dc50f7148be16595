package engine

import (
	"sync"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// slowWAL delegates to an in-memory device but burns real wall-clock time
// per page write, widening the window in which concurrent committers pile
// up behind the log write in flight.
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
// first of them to wake after a write carries everyone who arrived while it
// was in flight.
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
