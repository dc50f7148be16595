package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

func testSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeInt64},
		tuple.Column{Name: "name", Type: tuple.TypeString},
		tuple.Column{Name: "balance", Type: tuple.TypeInt64},
	)
}

func openTestDB(t *testing.T, kind Kind) (*DB, *Table) {
	t.Helper()
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = kind
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func kinds() []Kind { return []Kind{KindSI, KindSIAS} }

func TestInsertGetBothEngines(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at, err := tab.Insert(tx, 0, tuple.Row{int64(1), "alice", int64(100)})
			if err != nil {
				t.Fatal(err)
			}
			// Own write visible before commit.
			row, at, err := getRow(tab, tx, at, 1)
			if err != nil {
				t.Fatalf("own write not visible: %v", err)
			}
			if row[1] != "alice" {
				t.Errorf("row = %v", row)
			}
			db.Commit(tx, at)

			tx2 := db.Begin()
			row, _, err = getRow(tab, tx2, at, 1)
			if err != nil || row[2] != int64(100) {
				t.Fatalf("committed row: %v %v", row, err)
			}
			if _, _, err := getRow(tab, tx2, at, 999); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing key err = %v", err)
			}
			db.Commit(tx2, at)
		})
	}
}

func TestSnapshotIsolationReadersSeeOldVersion(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at, _ := tab.Insert(setup, 0, tuple.Row{int64(1), "x", int64(10)})
			at, _ = db.Commit(setup, at)

			reader := db.Begin() // snapshot taken before the update commits
			writer := db.Begin()
			at, err := tab.Update(writer, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(20)
				return r, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			// Writer sees its own new version.
			row, at, _ := getRow(tab, writer, at, 1)
			if row[2] != int64(20) {
				t.Errorf("writer sees %v", row[2])
			}
			// Reader still sees the old version (uncommitted writer).
			row, at, err = getRow(tab, reader, at, 1)
			if err != nil || row[2] != int64(10) {
				t.Errorf("reader sees %v, %v; want 10", row, err)
			}
			at, _ = db.Commit(writer, at)
			// Reader STILL sees the old version: snapshot isolation.
			row, at, err = getRow(tab, reader, at, 1)
			if err != nil || row[2] != int64(10) {
				t.Errorf("reader after writer-commit sees %v, %v; want 10", row, err)
			}
			db.Commit(reader, at)
			// A fresh transaction sees the new version.
			fresh := db.Begin()
			row, _, err = getRow(tab, fresh, at, 1)
			if err != nil || row[2] != int64(20) {
				t.Errorf("fresh tx sees %v, %v; want 20", row, err)
			}
			db.Commit(fresh, at)
		})
	}
}

func TestFirstUpdaterWins(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at, _ := tab.Insert(setup, 0, tuple.Row{int64(1), "x", int64(0)})
			at, _ = db.Commit(setup, at)

			t1 := db.Begin()
			t2 := db.Begin() // concurrent
			at, err := tab.Update(t1, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(1)
				return r, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(t1, at)
			// t2 was concurrent with t1 and t1 committed first: t2 must get
			// a serialization failure.
			_, err = tab.Update(t2, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(2)
				return r, nil
			}))
			if !errors.Is(err, txn.ErrSerialization) {
				t.Errorf("second updater err = %v, want ErrSerialization", err)
			}
			db.Abort(t2, at)

			final := db.Begin()
			row, _, _ := getRow(tab, final, at, 1)
			if row[2] != int64(1) {
				t.Errorf("final balance = %v, want 1 (first updater)", row[2])
			}
			db.Commit(final, at)
		})
	}
}

func TestAbortRollsBackUpdate(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at, _ := tab.Insert(setup, 0, tuple.Row{int64(1), "x", int64(5)})
			at, _ = db.Commit(setup, at)

			tx := db.Begin()
			at, _ = tab.Update(tx, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(99)
				return r, nil
			}))
			at, _ = db.Abort(tx, at)

			after := db.Begin()
			row, _, err := getRow(tab, after, at, 1)
			if err != nil || row[2] != int64(5) {
				t.Errorf("after abort: %v %v, want 5", row, err)
			}
			// The item must be updatable again (entrypoint restored / lock
			// released).
			at, err = tab.Update(after, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(6)
				return r, nil
			}))
			if err != nil {
				t.Errorf("update after abort: %v", err)
			}
			db.Commit(after, at)
		})
	}
}

func TestAbortRollsBackInsert(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at, _ := tab.Insert(tx, 0, tuple.Row{int64(7), "ghost", int64(0)})
			at, _ = db.Abort(tx, at)
			after := db.Begin()
			if _, _, err := getRow(tab, after, at, 7); !errors.Is(err, ErrNotFound) {
				t.Errorf("aborted insert visible: %v", err)
			}
			db.Commit(after, at)
		})
	}
}

func TestDeleteSemantics(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at, _ := tab.Insert(setup, 0, tuple.Row{int64(1), "x", int64(5)})
			at, _ = db.Commit(setup, at)

			older := db.Begin() // starts before the delete
			deleter := db.Begin()
			at, err := tab.Delete(deleter, at, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Deleter no longer sees it.
			if _, _, err := getRow(tab, deleter, at, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("deleter still sees row: %v", err)
			}
			at, _ = db.Commit(deleter, at)
			// The older transaction still sees the last committed state
			// (the paper's tombstone rationale).
			row, at, err := getRow(tab, older, at, 1)
			if err != nil || row[2] != int64(5) {
				t.Errorf("older tx after delete: %v %v, want visible 5", row, err)
			}
			db.Commit(older, at)
			// New transactions do not see it.
			fresh := db.Begin()
			if _, _, err := getRow(tab, fresh, at, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("fresh tx sees deleted row: %v", err)
			}
			db.Commit(fresh, at)
		})
	}
}

func TestScanVisibleOnly(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at := simclock.Time(0)
			for i := int64(1); i <= 10; i++ {
				at, _ = tab.Insert(setup, at, tuple.Row{i, fmt.Sprintf("r%d", i), i * 10})
			}
			at, _ = db.Commit(setup, at)
			// Update half, delete two, in a committed txn.
			mod := db.Begin()
			for i := int64(1); i <= 5; i++ {
				at, _ = tab.Update(mod, at, i, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = r[2].(int64) + 1
					return r, nil
				}))
			}
			at, _ = tab.Delete(mod, at, 9)
			at, _ = tab.Delete(mod, at, 10)
			at, _ = db.Commit(mod, at)

			reader := db.Begin()
			sum := int64(0)
			count := 0
			at, err := tab.Scan(reader, at, rowVisit(func(r tuple.Row) bool {
				sum += r[2].(int64)
				count++
				return true
			}))
			if err != nil {
				t.Fatal(err)
			}
			// rows 1..5 updated (10+20+..+50, +1 each = 155), rows 6..8
			// untouched (60+70+80 = 210), 9 and 10 deleted.
			if count != 8 || sum != 155+210 {
				t.Errorf("scan count=%d sum=%d, want 8, %d", count, sum, 155+210)
			}
			db.Commit(reader, at)
		})
	}
}

func TestUpdateManyVersionsChain(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			setup := db.Begin()
			at, _ := tab.Insert(setup, 0, tuple.Row{int64(1), "v", int64(0)})
			at, _ = db.Commit(setup, at)
			// 50 sequential committed updates.
			for i := 1; i <= 50; i++ {
				tx := db.Begin()
				var err error
				at, err = tab.Update(tx, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = r[2].(int64) + 1
					return r, nil
				}))
				if err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				at, _ = db.Commit(tx, at)
			}
			final := db.Begin()
			row, _, err := getRow(tab, final, at, 1)
			if err != nil || row[2] != int64(50) {
				t.Errorf("final = %v %v, want 50", row, err)
			}
			db.Commit(final, at)
		})
	}
}

// pointRows collects the rows a one-key secondary-index range (lo == hi)
// visits: the engine's point lookup.
func pointRows(tab *Table, tx *txn.Tx, at simclock.Time, idx int, key int64) ([]tuple.Row, simclock.Time, error) {
	var rows []tuple.Row
	at, err := tab.RangeBySecondary(tx, at, idx, key, key, rowVisitKey(func(_ int64, r tuple.Row) bool {
		rows = append(rows, r)
		return true
	}))
	return rows, at, err
}

func TestSecondaryIndexLookup(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			idx, at, err := tab.AddSecondaryIndex(0, "by_balance", rowKeyFn(func(r tuple.Row) (int64, bool) {
				return r[2].(int64), true
			}))
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for i := int64(1); i <= 6; i++ {
				at, _ = tab.Insert(tx, at, tuple.Row{i, "n", i % 2})
			}
			at, _ = db.Commit(tx, at)
			r := db.Begin()
			rows, at, err := pointRows(tab, r, at, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 3 {
				t.Errorf("secondary lookup returned %d rows, want 3", len(rows))
			}
			// After an update that changes the secondary key, lookups follow.
			u := db.Begin()
			at, err = tab.Update(u, at, 1, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(0)
				return r, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(u, at)
			r2 := db.Begin()
			rows, at, _ = pointRows(tab, r2, at, idx, 1)
			if len(rows) != 2 {
				t.Errorf("after key change, lookup(1) = %d rows, want 2", len(rows))
			}
			rows, at, _ = pointRows(tab, r2, at, idx, 0)
			if len(rows) != 4 {
				t.Errorf("after key change, lookup(0) = %d rows, want 4", len(rows))
			}
			db.Commit(r2, at)
			db.Commit(r, at)
		})
	}
}

func TestCommitDurabilityOrdering(t *testing.T) {
	db, tab := openTestDB(t, KindSIAS)
	tx := db.Begin()
	at, _ := tab.Insert(tx, 0, tuple.Row{int64(1), "d", int64(1)})
	durableBefore := db.WAL().Durable()
	at, err := db.Commit(tx, at)
	if err != nil {
		t.Fatal(err)
	}
	if db.WAL().Durable() <= durableBefore {
		t.Error("commit must force the WAL")
	}
}

func TestEngineStatsShape(t *testing.T) {
	db, tab := openTestDB(t, KindSIAS)
	tx := db.Begin()
	at, _ := tab.Insert(tx, 0, tuple.Row{int64(1), "s", int64(1)})
	at, _ = db.Commit(tx, at)
	st := db.Stats()
	if st.Commits != 1 {
		t.Errorf("commits = %d", st.Commits)
	}
	if st.WALDevice.Writes == 0 {
		t.Error("commit should have written the WAL device")
	}
	sst := tab.SIAS().Stats()
	if sst.Appends != 1 {
		t.Errorf("appends = %d, want 1", sst.Appends)
	}
	_ = at
}

// TestStaleEntryLocksNothing: a <key, VID> entry outlives its row's move to
// another key, and a write through the old key passes over it without taking
// the row's lock. Row A moves from key 1 to key 2 and row B is inserted at
// key 1; t1 updates key 1 (B) and stays open; t2 then updates, or deletes,
// key 2 (A) at once, instead of waiting out the lock wait budget behind t1.
func TestStaleEntryLocksNothing(t *testing.T) {
	for _, k := range kinds() {
		for _, op := range []string{"update", "delete"} {
			t.Run(k.String()+"/"+op, func(t *testing.T) {
				db, tab := openTestDB(t, k)
				db.Txns().WaitBudget = 100 * time.Millisecond
				setKey := func(key int64) func(tuple.Row) (tuple.Row, error) {
					return func(row tuple.Row) (tuple.Row, error) {
						row[0] = key
						return row, nil
					}
				}
				step := func(f func(tx *txn.Tx) (simclock.Time, error)) {
					tx := db.Begin()
					if _, err := f(tx); err != nil {
						t.Fatal(err)
					}
					if _, err := db.Commit(tx, 0); err != nil {
						t.Fatal(err)
					}
				}
				step(func(tx *txn.Tx) (simclock.Time, error) { return tab.Insert(tx, 0, tuple.Row{int64(1), "a", int64(0)}) })
				step(func(tx *txn.Tx) (simclock.Time, error) { return tab.Update(tx, 0, 1, rowUpdate(setKey(2))) })
				step(func(tx *txn.Tx) (simclock.Time, error) { return tab.Insert(tx, 0, tuple.Row{int64(1), "b", int64(0)}) })

				t1 := db.Begin()
				if _, err := tab.Update(t1, 0, 1, rowUpdate(setKey(1))); err != nil {
					t.Fatalf("t1 updates key 1: %v", err)
				}
				t2 := db.Begin()
				start := time.Now()
				var err error
				if op == "update" {
					_, err = tab.Update(t2, 0, 2, rowUpdate(setKey(2)))
				} else {
					_, err = tab.Delete(t2, 0, 2)
				}
				if err != nil {
					t.Fatalf("t2 %ss key 2 after %v: %v", op, time.Since(start), err)
				}
				for _, tx := range []*txn.Tx{t2, t1} {
					if _, err := db.Commit(tx, 0); err != nil {
						t.Fatal(err)
					}
				}
				check := db.Begin()
				row, _, err := getRow(tab, check, 0, 1)
				if err != nil || row[1] != "b" {
					t.Errorf("key 1 reads %v (%v), want row b", row, err)
				}
				_, _, err = getRow(tab, check, 0, 2)
				if want := op == "delete"; errors.Is(err, ErrNotFound) != want {
					t.Errorf("key 2 after t2's %s: %v", op, err)
				}
				db.Commit(check, 0)
			})
		}
	}
}
