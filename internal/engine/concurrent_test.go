package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/tuple"
	"sias/internal/txn"
)

// TestFacadeConcurrentSmoke drives the concurrency-safe facade from many
// goroutines with no manual clock threading at all — the shape every
// network session uses. Run under -race this is the engine-level smoke test
// for the server stack: Begin/Get/Update/Commit with retries on conflict,
// ending with a balance-sum invariant check.
func TestFacadeConcurrentSmoke(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			f := NewFacade(db)
			const (
				accounts = 12
				workers  = 8
				opsEach  = 50
				initial  = 500
			)

			setup := f.Begin()
			for i := int64(0); i < accounts; i++ {
				if err := f.Insert(tab, setup, tuple.Row{i, "acct", int64(initial)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Commit(setup); err != nil {
				t.Fatal(err)
			}

			var commits, conflicts atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for op := 0; op < opsEach; op++ {
						from := int64((w + op) % accounts)
						to := int64((w*5 + op*3 + 1) % accounts)
						if from == to {
							continue
						}
						tx := f.Begin()
						// Read one account, then transfer a unit.
						_, err := f.Get(tab, tx, from)
						if err == nil {
							err = f.Update(tab, tx, from, func(r tuple.Row) (tuple.Row, error) {
								r[2] = r[2].(int64) - 1
								return r, nil
							})
						}
						if err == nil {
							err = f.Update(tab, tx, to, func(r tuple.Row) (tuple.Row, error) {
								r[2] = r[2].(int64) + 1
								return r, nil
							})
						}
						if err != nil {
							f.Abort(tx)
							if errors.Is(err, txn.ErrSerialization) || errors.Is(err, txn.ErrLockTimeout) {
								conflicts.Add(1)
								continue
							}
							t.Errorf("worker %d op %d: %v", w, op, err)
							return
						}
						if err := f.Commit(tx); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
						commits.Add(1)
					}
				}(w)
			}
			wg.Wait()

			check := f.Begin()
			var sum int64
			n := 0
			if _, err := tab.Scan(check, 0, rowVisit(func(r tuple.Row) bool {
				sum += r[2].(int64)
				n++
				return true
			})); err != nil {
				t.Fatal(err)
			}
			f.Commit(check)
			if n != accounts || sum != accounts*initial {
				t.Errorf("accounts=%d sum=%d, want %d/%d (commits=%d conflicts=%d)",
					n, sum, accounts, accounts*initial, commits.Load(), conflicts.Load())
			}
			if commits.Load() == 0 {
				t.Error("nothing committed under contention")
			}
			st := f.Stats()
			if st.CommitFlushes > st.Commits+1 {
				t.Errorf("commit flushes %d exceed commits %d", st.CommitFlushes, st.Commits)
			}
		})
	}
}
