package engine

import (
	"bytes"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// budgetRows and budgetValue shape the allocation budgets below after the
// mixed-cold workload's scans: 128 rows of 1000-byte values, keys past the
// small integers the runtime boxes for free.
const (
	budgetRows  = 128
	budgetValue = 1000
	budgetBase  = int64(1 << 20)
)

// openBudgetTable loads budgetRows committed kv rows into a SIAS table.
func openBudgetTable(t *testing.T) (*DB, *Table, simclock.Time) {
	t.Helper()
	opts := DefaultOptions(device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14))
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	)
	tab, at, err := db.CreateTable(0, "kv", sch, "k")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(0); i < budgetRows; i++ {
		val := bytes.Repeat([]byte{byte(i)}, budgetValue)
		if at, err = tab.Insert(tx, at, tuple.Row{budgetBase + i, val}); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = db.Commit(tx, at); err != nil {
		t.Fatal(err)
	}
	return db, tab, at
}

// TestRangeByKeyAllocBudget pins what a scanned row costs the engine: the
// version's one copy out of the page — 1 allocation. The row reaches fn as a
// view of that copy, checked without allocating, and its bytes column is read
// in place. The scan's own fixed cost (the doublings of its index-entry
// slice, 8 for 128 entries) is allowed on top, spread over the rows.
func TestRangeByKeyAllocBudget(t *testing.T) {
	db, tab, at := openBudgetTable(t)
	tx := db.Begin()
	defer db.Commit(tx, at)
	rows := 0
	scan := func() {
		rows = 0
		if _, err := tab.RangeByKey(tx, at, budgetBase, budgetBase+budgetRows-1, func(row tuple.View) bool {
			if v := row.Bytes(1); len(v) != budgetValue || v[0] != byte(row.Int64(0)-budgetBase) {
				t.Fatalf("row %d carries the wrong value", row.Int64(0))
			}
			rows++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	perRow := testing.AllocsPerRun(20, scan) / budgetRows
	if rows != budgetRows {
		t.Fatalf("range saw %d rows, want %d", rows, budgetRows)
	}
	if perRow > 1+0.1 {
		t.Errorf("RangeByKey costs %.2f allocations per row, want 1 (plus under 0.1 of per-scan cost)", perRow)
	}
}

// TestGetAllocBudget pins a point read at 1 allocation: the version's one
// copy, which Get returns as a view. The index probe fills a VID buffer on
// Get's stack (index.Tree.SearchAppend).
func TestGetAllocBudget(t *testing.T) {
	db, tab, at := openBudgetTable(t)
	tx := db.Begin()
	defer db.Commit(tx, at)
	i := int64(0)
	perGet := testing.AllocsPerRun(2*budgetRows, func() {
		key := budgetBase + i%budgetRows
		i++
		row, _, err := tab.Get(tx, at, key)
		if err != nil || row.Int64(0) != key {
			t.Fatalf("Get(%d) = %v, %v", key, row, err)
		}
	})
	if perGet > 1 {
		t.Errorf("Get costs %.2f allocations, want at most 1", perGet)
	}
}

// TestCommitAllocBudget pins a served write transaction — Begin, one Update
// and Commit — through a facade built the way siasserver builds one: an
// Options literal over in-memory devices. 7 allocations:
//   - Begin: the Tx (1);
//   - Update: the version's private copy out of the page (1), the facade's
//     row adapter decoding that version's view into the old row and its two
//     boxed columns (3), and the finish hook that swings the VIDmap back on
//     abort (1);
//   - the test's mutate boxing the new value into the row (1).
//
// Nothing else may: Commit appends its record and flushes through the log's
// flush gate, which allocates nothing, the two log records are framed in the
// log tail, the version is written into its page slot, the row is encoded
// into a pooled buffer, the index probe fills a stack buffer, the lock entry
// is recycled, the Tx's lock and hook slices use its inline arrays, and a
// commit runs no maintenance.
// Under -race the pool may drop the row buffer, so one more is allowed.
func TestCommitAllocBudget(t *testing.T) {
	db, err := Open(Options{
		Kind:       KindSIAS,
		Policy:     PolicyT2,
		DataDevice: device.NewMem(page.Size, 1<<16),
		WALDevice:  device.NewMem(page.Size, 1<<14),
		PoolFrames: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFacade(db)
	tab, err := f.CreateTable("kv", tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	), "k")
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 64)
	tx := f.Begin()
	for i := int64(0); i < budgetRows; i++ {
		if err := f.Insert(tab, tx, tuple.Row{budgetBase + i, val}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}
	set := func(row tuple.Row) (tuple.Row, error) {
		row[1] = val
		return row, nil
	}
	i := int64(0)
	perTxn := testing.AllocsPerRun(2*budgetRows, func() {
		key := budgetBase + i%budgetRows
		i++
		tx := f.Begin()
		if err := f.Update(tab, tx, key, set); err != nil {
			t.Fatalf("Update(%d): %v", key, err)
		}
		if err := f.Commit(tx); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	})
	limit := 7.0
	if raceEnabled {
		limit++
	}
	if perTxn > limit {
		t.Errorf("Begin + Update + Commit costs %.2f allocations, want at most %v", perTxn, limit)
	}
}
