package sias

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func openAPI(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func usersTable(t *testing.T, db *DB) *Table {
	t.Helper()
	tab, err := db.CreateTable("users", NewSchema(
		Column{Name: "id", Type: TypeInt64},
		Column{Name: "name", Type: TypeString},
		Column{Name: "score", Type: TypeInt64},
	), "id")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestPublicAPICRUDAllEnginesAndStorages(t *testing.T) {
	for _, eng := range []Engine{EngineSIAS, EngineSI} {
		for _, st := range []Storage{StorageMem, StorageSSD, StorageHDD} {
			t.Run(fmt.Sprintf("%d-%d", eng, st), func(t *testing.T) {
				db := openAPI(t, Options{Engine: eng, Storage: st})
				tab := usersTable(t, db)

				tx := db.Begin()
				if err := tab.Insert(tx, Row{int64(1), "n", int64(10)}); err != nil {
					t.Fatal(err)
				}
				if err := db.Commit(tx); err != nil {
					t.Fatal(err)
				}

				tx = db.Begin()
				if err := tab.Update(tx, 1, func(r Row) (Row, error) {
					r[2] = int64(20)
					return r, nil
				}); err != nil {
					t.Fatal(err)
				}
				row, err := tab.Get(tx, 1)
				if err != nil || row[2] != int64(20) {
					t.Fatalf("get after update: %v %v", row, err)
				}
				if err := db.Commit(tx); err != nil {
					t.Fatal(err)
				}

				tx = db.Begin()
				if err := tab.Delete(tx, 1); err != nil {
					t.Fatal(err)
				}
				db.Commit(tx)
				tx = db.Begin()
				if _, err := tab.Get(tx, 1); !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted row err = %v", err)
				}
				db.Commit(tx)
			})
		}
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	db := openAPI(t, Options{})
	tab := usersTable(t, db)
	tx := db.Begin()
	tab.Insert(tx, Row{int64(1), "a", int64(1)})
	db.Commit(tx)

	reader := db.Begin()
	w := db.Begin()
	tab.Update(w, 1, func(r Row) (Row, error) { r[2] = int64(2); return r, nil })
	db.Commit(w)
	row, err := tab.Get(reader, 1)
	if err != nil || row[2] != int64(1) {
		t.Fatalf("snapshot read %v %v, want 1", row, err)
	}
	db.Commit(reader)
}

func TestPublicAPIConflict(t *testing.T) {
	db := openAPI(t, Options{})
	tab := usersTable(t, db)
	tx := db.Begin()
	tab.Insert(tx, Row{int64(1), "a", int64(0)})
	db.Commit(tx)

	a := db.Begin()
	b := db.Begin()
	if err := tab.Update(a, 1, func(r Row) (Row, error) { r[2] = int64(1); return r, nil }); err != nil {
		t.Fatal(err)
	}
	db.Commit(a)
	err := tab.Update(b, 1, func(r Row) (Row, error) { r[2] = int64(2); return r, nil })
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("err = %v, want ErrSerialization", err)
	}
	db.Abort(b)
}

// TestPublicAPILockWaitLetsHolderCommit has a second updater wait for the
// row lock of an uncommitted first one: the wait must not keep the holder
// from committing, and the waiter then loses first-updater-wins.
func TestPublicAPILockWaitLetsHolderCommit(t *testing.T) {
	db := openAPI(t, Options{Storage: StorageMem})
	tab := usersTable(t, db)
	tx := db.Begin()
	tab.Insert(tx, Row{int64(1), "a", int64(0)})
	db.Commit(tx)

	a := db.Begin()
	b := db.Begin()
	if err := tab.Update(a, 1, func(r Row) (Row, error) { r[2] = int64(1); return r, nil }); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		err := tab.Update(b, 1, func(r Row) (Row, error) { r[2] = int64(2); return r, nil })
		db.Abort(b)
		waited <- err
	}()
	time.Sleep(20 * time.Millisecond) // let b reach the lock wait
	start := time.Now()
	if err := db.Commit(a); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("commit of the lock holder took %v: it waited for the waiter", d)
	}
	if err := <-waited; !errors.Is(err, ErrSerialization) {
		t.Fatalf("waiter err = %v, want ErrSerialization", err)
	}
}

func TestPublicAPIScanAndSecondary(t *testing.T) {
	db := openAPI(t, Options{})
	tab := usersTable(t, db)
	idx, err := tab.AddSecondaryIndex("by_score", func(r Row) (int64, bool) {
		return r[2].(int64), true
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(1); i <= 10; i++ {
		tab.Insert(tx, Row{i, "u", i % 3})
	}
	db.Commit(tx)

	tx = db.Begin()
	n := 0
	tab.Scan(tx, func(Row) bool { n++; return true })
	if n != 10 {
		t.Errorf("scan saw %d rows", n)
	}
	rows := 0
	if err := tab.RangeBySecondary(tx, idx, 0, 0, func(int64, Row) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Errorf("secondary lookup = %d rows, want 3", rows)
	}
	db.Commit(tx)
}

func TestPublicAPIElapsedAdvances(t *testing.T) {
	db := openAPI(t, Options{Storage: StorageSSD})
	tab := usersTable(t, db)
	before := db.Elapsed()
	tx := db.Begin()
	for i := int64(0); i < 100; i++ {
		tab.Insert(tx, Row{i, "x", i})
	}
	db.Commit(tx)
	if db.Elapsed() <= before {
		t.Error("virtual time did not advance")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Data.Writes == 0 {
		t.Error("checkpoint should write data pages")
	}
}

func TestPublicAPITrace(t *testing.T) {
	db := openAPI(t, Options{Storage: StorageSSD, Trace: true})
	tab := usersTable(t, db)
	tx := db.Begin()
	for i := int64(0); i < 50; i++ {
		tab.Insert(tx, Row{i, "x", i})
	}
	db.Commit(tx)
	db.Checkpoint()
	if db.Trace().Len() == 0 {
		t.Error("trace empty after checkpoint")
	}
}

func TestPublicAPIMaintenance(t *testing.T) {
	db := openAPI(t, Options{})
	tab := usersTable(t, db)
	tx := db.Begin()
	tab.Insert(tx, Row{int64(1), "x", int64(0)})
	db.Commit(tx)
	for i := 0; i < 50; i++ {
		tx := db.Begin()
		if err := tab.Update(tx, 1, func(r Row) (Row, error) {
			r[2] = r[2].(int64) + 1
			return r, nil
		}); err != nil {
			t.Fatal(err)
		}
		db.Commit(tx)
	}
	if err := db.RunMaintenance(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	row, err := tab.Get(tx, 1)
	if err != nil || row[2] != int64(50) {
		t.Fatalf("after GC: %v %v", row, err)
	}
	db.Commit(tx)
}
