package engine

import (
	"fmt"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// logMark is what a commit may add to the log: bytes appended and pages
// written. A transaction that wrote nothing must leave both where they were.
type logMark struct {
	next   uint64
	writes int64
}

func markLog(db *DB) logMark {
	return logMark{next: uint64(db.WAL().NextLSN()), writes: db.WAL().PageWrites()}
}

// TestReadOnlyCommitLogsNothing pins the facade's flush budget for readers:
// a transaction that created no version commits and aborts with zero log
// bytes and zero page writes, is counted in Commits and ReadOnlyCommits, and
// claims no commit flush; a writer right after it still pays exactly one.
func TestReadOnlyCommitLogsNothing(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			f := NewFacade(db)
			w := f.Begin()
			if err := f.Insert(tab, w, tuple.Row{int64(1), "a", int64(10)}); err != nil {
				t.Fatal(err)
			}
			if !w.Wrote() {
				t.Fatal("an inserting transaction does not report Wrote")
			}
			if err := f.Commit(w); err != nil {
				t.Fatal(err)
			}

			mark, before := markLog(db), db.Stats()
			for i := 0; i < 10; i++ {
				r := f.Begin()
				if _, err := f.Get(tab, r, 1); err != nil {
					t.Fatal(err)
				}
				if r.Wrote() {
					t.Fatal("a reading transaction reports Wrote")
				}
				finish := f.Commit
				if i%2 == 1 {
					finish = f.Abort
				}
				if err := finish(r); err != nil {
					t.Fatal(err)
				}
				if r.Status() == txn.StatusInProgress {
					t.Fatal("reader still in progress after its outcome")
				}
			}
			if got := markLog(db); got != mark {
				t.Errorf("10 read-only outcomes moved the log from %+v to %+v", mark, got)
			}
			after := db.Stats()
			if c, ro, a := after.Commits-before.Commits, after.ReadOnlyCommits-before.ReadOnlyCommits, after.Aborts-before.Aborts; c != 5 || ro != 5 || a != 5 {
				t.Errorf("commits/read-only commits/aborts += %d/%d/%d, want 5/5/5", c, ro, a)
			}
			if after.CommitFlushes != before.CommitFlushes || after.WALDevice.Writes != before.WALDevice.Writes {
				t.Errorf("read-only outcomes flushed: commit flushes %d -> %d, WAL device writes %d -> %d",
					before.CommitFlushes, after.CommitFlushes, before.WALDevice.Writes, after.WALDevice.Writes)
			}
			// The horizon is the next id only when nothing runs and no
			// read-only snapshot is pinned.
			if h, next := db.Txns().Horizon(), db.Txns().NextID(); h != next {
				t.Errorf("horizon %d != next id %d: a transaction is still running or pinned", h, next)
			}

			// A writer still pays its one flush, and is not a read-only commit.
			w = f.Begin()
			if err := f.Update(tab, w, 1, func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(11)
				return r, nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := f.Commit(w); err != nil {
				t.Fatal(err)
			}
			last := db.Stats()
			if last.CommitFlushes-after.CommitFlushes != 1 || last.ReadOnlyCommits != after.ReadOnlyCommits {
				t.Errorf("writer: commit flushes += %d, read-only commits += %d, want 1 and 0",
					last.CommitFlushes-after.CommitFlushes, last.ReadOnlyCommits-after.ReadOnlyCommits)
			}
		})
	}
}

// TestReadOnlyCommitAllocs: the facade adds no allocation to finishing a
// reader — no commit waiter, no done channel, no batch slice. Begin and the
// manager's own finish are the whole cost.
func TestReadOnlyCommitAllocs(t *testing.T) {
	db, _ := openTestDB(t, KindSIAS)
	f := NewFacade(db)
	bare := testing.AllocsPerRun(200, func() {
		if err := db.txm.Commit(db.txm.Begin()); err != nil {
			t.Fatal(err)
		}
	})
	facade := testing.AllocsPerRun(200, func() {
		if err := f.Commit(f.Begin()); err != nil {
			t.Fatal(err)
		}
	})
	if facade > bare {
		t.Errorf("read-only Facade.Commit: %.0f allocs per Begin+Commit, the transaction manager alone needs %.0f", facade, bare)
	}
}

// TestUnloggedIDsReusedAfterCrash: readers consume transaction ids without
// logging them, so after a crash recovery restarts the allocator far below
// the highest id ever issued and new writers get ids earlier readers held.
// That is safe only because such an id names nothing on disk: every
// acknowledged write must survive, no loser may surface, and a snapshot
// taken before a reused-id writer commits must not see it — across two
// crashes, so the second recovery replays a log written under reused ids.
func TestUnloggedIDsReusedAfterCrash(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, _, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			f := NewFacade(db)
			oracle := map[int64]int64{} // acknowledged balance per key

			put := func(f *Facade, tab *Table, key, bal int64) *txn.Tx {
				t.Helper()
				tx := f.Begin()
				var err error
				if _, ok := oracle[key]; ok {
					err = f.Update(tab, tx, key, func(r tuple.Row) (tuple.Row, error) {
						r[2] = bal
						return r, nil
					})
				} else {
					err = f.Insert(tab, tx, tuple.Row{key, fmt.Sprintf("k%d", key), bal})
				}
				if err != nil {
					t.Fatal(err)
				}
				return tx
			}
			write := func(f *Facade, tab *Table, key, bal int64) txn.ID {
				t.Helper()
				tx := put(f, tab, key, bal)
				if err := f.Commit(tx); err != nil {
					t.Fatal(err)
				}
				oracle[key] = bal
				return tx.ID
			}
			readers := func(f *Facade, tab *Table, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					r := f.Begin()
					for key, want := range oracle {
						row, err := f.Get(tab, r, key)
						if err != nil || row[2] != want {
							t.Fatalf("reader: key %d = %v, %v; want %d", key, row, err, want)
						}
						break
					}
					if err := f.Commit(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			verify := func(f *Facade, tab *Table, when string) {
				t.Helper()
				r := f.Begin()
				defer f.Abort(r)
				seen := map[int64]int64{}
				if _, err := tab.Scan(r, 0, rowVisit(func(row tuple.Row) bool {
					seen[row[0].(int64)] = row[2].(int64)
					return true
				})); err != nil {
					t.Fatal(err)
				}
				for key, want := range oracle {
					if got, ok := seen[key]; !ok || got != want {
						t.Errorf("%s: key %d = %d (present %v), want acknowledged %d", when, key, got, ok, want)
					}
				}
				for key := range seen {
					if _, ok := oracle[key]; !ok {
						t.Errorf("%s: phantom key %d visible", when, key)
					}
				}
			}

			// Generation 1: every writer is followed by a crowd of readers,
			// and the run ends on readers and on a loser that never commits.
			for i := int64(0); i < 30; i++ {
				write(f, tab, i%20, 100+i)
				readers(f, tab, 40)
			}
			maxLogged := put(f, tab, 1000, -1).ID // a loser: heap records logged, no outcome
			readers(f, tab, 500)
			issued := db.Txns().NextID()
			// Make the loser's heap records durable without deciding it.
			if _, err := db.WAL().Flush(0, db.WAL().NextLSN()); err != nil {
				t.Fatal(err)
			}
			db.Pool().InvalidateAll() // crash: no checkpoint, pages lost

			db, tab = crashAndRecover(t, k, data, walDev)
			f = NewFacade(db)
			next := db.Txns().NextID()
			if next != maxLogged+1 || next+500 > issued {
				t.Fatalf("recovered allocator at %d, want %d (highest logged + 1) and far below the %d issued before the crash",
					next, maxLogged+1, issued)
			}
			verify(f, tab, "after first crash")

			// Generation 2 reuses ids the readers above held. A snapshot that
			// predates a reused-id writer must not see it.
			old := f.Begin()
			reused := write(f, tab, 5, 7777)
			if reused >= issued {
				t.Fatalf("writer got id %d, not one of the reused ids below %d", reused, issued)
			}
			if row, err := f.Get(tab, old, 5); err != nil || row[2] == int64(7777) {
				t.Errorf("snapshot older than the reused-id writer reads %v, %v", row, err)
			}
			if err := f.Commit(old); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 30; i++ {
				write(f, tab, 10+i, 2000+i) // updates of 10..19, inserts of 20..39
				readers(f, tab, 10)
			}
			// A reused id that aborts, and one left undecided by the crash.
			ab := put(f, tab, 2000, -2)
			if err := f.Abort(ab); err != nil {
				t.Fatal(err)
			}
			put(f, tab, 2001, -3)
			verify(f, tab, "second generation")
			if _, err := db.WAL().Flush(0, db.WAL().NextLSN()); err != nil {
				t.Fatal(err)
			}
			db.Pool().InvalidateAll()

			db, tab = crashAndRecover(t, k, data, walDev)
			f = NewFacade(db)
			verify(f, tab, "after second crash")
			write(f, tab, 5, 8888)
			verify(f, tab, "third generation")
		})
	}
}
