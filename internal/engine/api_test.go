package engine

import (
	"errors"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/tuple"
)

func TestCreateTableValidation(t *testing.T) {
	data := device.NewMem(page.Size, 1<<14)
	walDev := device.NewMem(page.Size, 1<<12)
	db, err := Open(DefaultOptions(data, walDev))
	if err != nil {
		t.Fatal(err)
	}
	schema := testSchema()
	if _, _, err := db.CreateTable(0, "t", schema, "no_such_col"); err == nil {
		t.Error("unknown pk column accepted")
	}
	badPK := tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeString},
	)
	if _, _, err := db.CreateTable(0, "t", badPK, "id"); err == nil {
		t.Error("non-int64 pk accepted")
	}
	if _, _, err := db.CreateTable(0, "t", schema, "id"); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	if _, _, err := db.CreateTable(0, "t", schema, "id"); err == nil {
		t.Error("duplicate table name accepted")
	}
	if got := db.Table("t"); got == nil {
		t.Error("Table lookup failed")
	}
	if got := db.Table("missing"); got != nil {
		t.Error("missing table returned non-nil")
	}
	if n := len(db.Tables()); n != 1 {
		t.Errorf("Tables() = %d entries", n)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without devices accepted")
	}
	if _, err := Open(Options{DataDevice: device.NewMem(page.Size, 16)}); err == nil {
		t.Error("Open without WAL device accepted")
	}
}

func TestUpdateMissingKey(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			_, err := tab.Update(tx, 0, 42, func(r tuple.Row) (tuple.Row, error) { return r, nil })
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("update missing key err = %v", err)
			}
			if _, err := tab.Delete(tx, 0, 42); !errors.Is(err, ErrNotFound) {
				t.Errorf("delete missing key err = %v", err)
			}
			db.Abort(tx, 0)
		})
	}
}

// TestDeleteMovedKey deletes the key a row held before an update moved it:
// the delete finds no row (as Get does) and leaves the moved row alone. Under
// SIAS the primary index keeps the old <key, VID> entry, so the visible
// version's key must be checked before anything is tombstoned.
func TestDeleteMovedKey(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at, _ := tab.Insert(tx, 0, tuple.Row{int64(1), "x", int64(1)})
			at, err := tab.Update(tx, at, 1, func(r tuple.Row) (tuple.Row, error) {
				return tuple.Row{int64(2), r[1], r[2]}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(tx, at)

			del := db.Begin()
			if _, _, err := tab.Get(del, at, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(1) after the move: %v, want ErrNotFound", err)
			}
			if at, err = tab.Delete(del, at, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("Delete(1) after the move: %v, want ErrNotFound", err)
			}
			at, _ = db.Commit(del, at)

			check := db.Begin()
			if row, _, err := tab.Get(check, at, 2); err != nil || row[0] != int64(2) {
				t.Errorf("moved row after Delete(1): %v, %v", row, err)
			}
			db.Commit(check, at)
		})
	}
}

func TestMutateErrorAborts(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at, _ := tab.Insert(tx, 0, tuple.Row{int64(1), "x", int64(1)})
			at, _ = db.Commit(tx, at)
			u := db.Begin()
			boom := errors.New("boom")
			_, err := tab.Update(u, at, 1, func(tuple.Row) (tuple.Row, error) {
				return nil, boom
			})
			if !errors.Is(err, boom) {
				t.Errorf("mutate error not propagated: %v", err)
			}
			db.Abort(u, at)
			// Row unchanged.
			check := db.Begin()
			row, _, err := tab.Get(check, at, 1)
			if err != nil || row[2] != int64(1) {
				t.Errorf("row after failed mutate: %v %v", row, err)
			}
			db.Commit(check, at)
		})
	}
}

func TestStatsString(t *testing.T) {
	db, tab := openTestDB(t, KindSIAS)
	tx := db.Begin()
	at, _ := tab.Insert(tx, 0, tuple.Row{int64(1), "x", int64(1)})
	at, _ = db.Commit(tx, at)
	st := db.Stats()
	if st.Data.String() == "" {
		t.Error("stats string empty")
	}
	_ = at
}
