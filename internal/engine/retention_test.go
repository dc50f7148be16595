package engine

import (
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// ordersFixture opens an engine with the given retention window, creates
// an indexed orders table and inserts keys 1..n with customer=7.
func ordersFixture(t *testing.T, k Kind, retention uint64, n int64) (*DB, *Table, simclock.Time) {
	t.Helper()
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = k
	opts.GCRetention = retention
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTable(0, "orders", tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeInt64},
		tuple.Column{Name: "customer", Type: tuple.TypeInt64},
	), "id")
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = tab.AddSecondaryIndex(at, "by_customer", column(1)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= n; i++ {
		tx := db.Begin()
		at, err = tab.Insert(tx, at, tuple.Row{i, int64(7)})
		if err != nil {
			t.Fatal(err)
		}
		at, _ = db.Commit(tx, at)
	}
	return db, tab, at
}

// column is the secondary key function over int64 column i, the unlogged
// counterpart of CreateIndexLogged that the SI baseline takes too.
func column(i int) func(tuple.View) (int64, bool) {
	return func(r tuple.View) (int64, bool) {
		return r.Int64(i), !r.Null(i)
	}
}

// churnCustomers rewrites every row's customer column `rounds` times so each
// row grows a chain of superseded versions GC would otherwise reclaim.
func churnCustomers(t *testing.T, db *DB, tab *Table, at simclock.Time, n int64, rounds int) simclock.Time {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for i := int64(1); i <= n; i++ {
			tx := db.Begin()
			var err error
			at, err = tab.Update(tx, at, i, rowUpdate(func(row tuple.Row) (tuple.Row, error) {
				row[1] = int64(100 + r)
				return row, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(tx, at)
		}
	}
	return at
}

// TestLiveAsOfPinsMaintenanceHorizon verifies that a running AS OF
// transaction holds the GC/vacuum horizon at its token even with a zero
// retention window, so maintenance cannot reclaim versions mid-scan, and
// that finishing the transaction releases the pin.
func TestLiveAsOfPinsMaintenanceHorizon(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab, at := ordersFixture(t, k, 0, 20)
			token := db.SnapshotToken()
			asOf := db.BeginReadOnlyAt(token)

			at = churnCustomers(t, db, tab, at, 20, 3)
			if h := db.txm.Horizon(); h != txn.ID(token) {
				t.Fatalf("horizon = %d with a live AS OF tx, want pinned at token %d", h, token)
			}
			at, err := db.RunMaintenance(at)
			if err != nil {
				t.Fatal(err)
			}
			// The pinned snapshot still resolves the pre-churn state, by key
			// and through the secondary index.
			row, at2, err := getRow(tab, asOf, at, 11)
			if err != nil {
				t.Fatal(err)
			}
			if row[1].(int64) != 7 {
				t.Fatalf("AS OF read after maintenance: customer %v, want 7", row[1])
			}
			idx, err := tab.SecondaryIndex("by_customer")
			if err != nil {
				t.Fatal(err)
			}
			rows, at2, err := pointRows(tab, asOf, at2, idx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 20 {
				t.Fatalf("AS OF index lookup after maintenance: %d rows, want 20", len(rows))
			}
			db.Abort(asOf, at2)
			if h, next := db.txm.Horizon(), db.txm.NextID(); h != next {
				t.Fatalf("horizon = %d after releasing the pin, want %d", h, next)
			}
		})
	}
}

// TestGCRetentionKeepsUnpinnedTokensReadable verifies the configured
// retention window: a snapshot token captured and then left unpinned through
// heavy churn and repeated maintenance still resolves the full old state,
// because maintenance holds its horizon GCRetention ids back.
func TestGCRetentionKeepsUnpinnedTokensReadable(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			db, tab, at := ordersFixture(t, k, 1<<20, 20)
			token := db.SnapshotToken()

			// No live transaction protects the token across this churn.
			at = churnCustomers(t, db, tab, at, 20, 3)
			var err error
			for i := 0; i < 3; i++ {
				at, err = db.RunMaintenance(at)
				if err != nil {
					t.Fatal(err)
				}
			}

			asOf := db.BeginReadOnlyAt(token)
			row, at2, err := getRow(tab, asOf, at, 5)
			if err != nil {
				t.Fatal(err)
			}
			if row[1].(int64) != 7 {
				t.Fatalf("AS OF read inside retention window: customer %v, want 7", row[1])
			}
			idx, err := tab.SecondaryIndex("by_customer")
			if err != nil {
				t.Fatal(err)
			}
			rows, at2, err := pointRows(tab, asOf, at2, idx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 20 {
				t.Fatalf("AS OF index lookup inside retention window: %d rows, want 20", len(rows))
			}
			count := 0
			at2, err = tab.RangeByKey(asOf, at2, 1, 100, rowVisit(func(tuple.Row) bool {
				count++
				return true
			}))
			if err != nil {
				t.Fatal(err)
			}
			if count != 20 {
				t.Fatalf("AS OF range inside retention window: %d rows, want 20", count)
			}
			db.Abort(asOf, at2)
		})
	}
}
