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
// version's one copy out of the page, the row and its two boxed columns — 4
// allocations. The bytes column aliases that copy rather than copying it
// again. The scan's own fixed cost (the doublings of its index-entry slice,
// 8 for 128 entries) is allowed on top, spread over the rows.
func TestRangeByKeyAllocBudget(t *testing.T) {
	db, tab, at := openBudgetTable(t)
	tx := db.Begin()
	defer db.Commit(tx, at)
	rows := 0
	scan := func() {
		rows = 0
		if _, err := tab.RangeByKey(tx, at, budgetBase, budgetBase+budgetRows-1, func(row tuple.Row) bool {
			if v := row[1].([]byte); len(v) != budgetValue || v[0] != byte(row[0].(int64)-budgetBase) {
				t.Fatalf("row %d carries the wrong value", row[0])
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
	if perRow > 4+0.1 {
		t.Errorf("RangeByKey costs %.2f allocations per row, want 4 (plus under 0.1 of per-scan cost)", perRow)
	}
}

// TestGetAllocBudget pins a point read: the index probe's VID slice, the
// version's one copy and the decoded row with its two boxed columns.
func TestGetAllocBudget(t *testing.T) {
	db, tab, at := openBudgetTable(t)
	tx := db.Begin()
	defer db.Commit(tx, at)
	i := int64(0)
	perGet := testing.AllocsPerRun(2*budgetRows, func() {
		key := budgetBase + i%budgetRows
		i++
		row, _, err := tab.Get(tx, at, key)
		if err != nil || row[0].(int64) != key {
			t.Fatalf("Get(%d) = %v, %v", key, row, err)
		}
	})
	if perGet > 5.2 {
		t.Errorf("Get costs %.2f allocations, want at most 5.2", perGet)
	}
}
