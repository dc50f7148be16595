package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// TestConcurrentStress hammers both engines from many goroutines with
// overlapping transactions on a small, contended keyspace while maintenance
// runs. Run under -race this exercises the locking of every layer; the final
// balance-sum invariant checks transactional atomicity under real
// concurrency (not just virtual-time interleaving).
func TestConcurrentStress(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			const accounts = 16
			const workers = 8
			const opsEach = 60
			const initial = 1000

			setup := db.Begin()
			at := simclock.Time(0)
			for i := int64(0); i < accounts; i++ {
				var err error
				at, err = tab.Insert(setup, at, tuple.Row{i, "acct", int64(initial)})
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Commit(setup, at); err != nil {
				t.Fatal(err)
			}

			var conflicts, commits atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					myAt := at
					for op := 0; op < opsEach; op++ {
						from := int64((w + op) % accounts)
						to := int64((w*7 + op*3) % accounts)
						if from == to {
							continue
						}
						tx := db.Begin()
						var err error
						myAt, err = tab.Update(tx, myAt, from, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
							r[2] = r[2].(int64) - 1
							return r, nil
						}))
						if err == nil {
							myAt, err = tab.Update(tx, myAt, to, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
								r[2] = r[2].(int64) + 1
								return r, nil
							}))
						}
						if err != nil {
							db.Abort(tx, myAt)
							if errors.Is(err, txn.ErrSerialization) || errors.Is(err, txn.ErrLockTimeout) {
								conflicts.Add(1)
								continue
							}
							t.Errorf("worker %d op %d: %v", w, op, err)
							return
						}
						if _, err := db.Commit(tx, myAt); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
						commits.Add(1)
						if op%20 == 19 {
							db.RunMaintenance(myAt)
						}
					}
				}(w)
			}
			wg.Wait()

			check := db.Begin()
			var sum int64
			n := 0
			if _, err := tab.Scan(check, at, rowVisit(func(r tuple.Row) bool {
				sum += r[2].(int64)
				n++
				return true
			})); err != nil {
				t.Fatal(err)
			}
			db.Commit(check, at)
			if n != accounts || sum != accounts*initial {
				t.Errorf("accounts=%d sum=%d, want %d/%d (commits=%d conflicts=%d)",
					n, sum, accounts, accounts*initial, commits.Load(), conflicts.Load())
			}
			if commits.Load() == 0 {
				t.Error("nothing committed under contention")
			}
		})
	}
}

// TestConcurrentReadersDontBlock verifies readers proceed against a live
// writer (the MVCC property the paper leads with).
func TestConcurrentReadersDontBlock(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at, _ := tab.Insert(setup, 0, tuple.Row{int64(1), "x", int64(7)})
			at, _ = db.Commit(setup, at)

			writer := db.Begin()
			at, err := tab.Update(writer, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(8)
				return r, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			// Writer holds the item lock, uncommitted. Readers never touch
			// that lock: 32 concurrent readers must all return the old value.
			var wg sync.WaitGroup
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := db.Begin()
					row, _, err := getRow(tab, r, at, 1)
					if err != nil || row[2] != int64(7) {
						t.Errorf("reader got %v %v, want 7", row, err)
					}
					db.Commit(r, at)
				}()
			}
			wg.Wait()
			db.Commit(writer, at)
		})
	}
}
