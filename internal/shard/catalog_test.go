package shard_test

import (
	"errors"
	"sort"
	"testing"

	"sias/internal/engine"
	"sias/internal/shard"
	"sias/internal/tuple"
)

func ordersSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeInt64},
		tuple.Column{Name: "customer", Type: tuple.TypeInt64},
		tuple.Column{Name: "note", Type: tuple.TypeString},
	)
}

// indexRows collects the rows of a one-key index range (lo == hi): the
// router's point lookup.
func indexRows(tx *shard.Txn, table, index string, key int64) ([]tuple.Row, error) {
	var rows []tuple.Row
	err := tx.IndexRange(table, index, key, key, func(_ int64, r tuple.Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows, err
}

// TestCatalogTypedOpsAcrossShards drives catalog DDL and typed row ops over
// a 4-shard router: rows land on their hash shards, index lookups gather
// from every shard, index ranges merge in global index-key order, and table
// scans merge in global primary-key order.
func TestCatalogTypedOpsAcrossShards(t *testing.T) {
	r := newRouter(t, 4)
	if err := r.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}
	// Duplicate DDL is rejected with the catalog sentinel.
	if err := r.CreateTable("orders", ordersSchema(), "id"); !errors.Is(err, engine.ErrExists) {
		t.Fatalf("duplicate create table: %v", err)
	}
	if err := r.CreateIndex("orders", "by_customer", "customer"); !errors.Is(err, engine.ErrExists) {
		t.Fatalf("duplicate create index: %v", err)
	}

	tx := r.Begin()
	for i := int64(1); i <= 40; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, i % 4, "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = r.Begin()
	defer tx.Abort()
	// Point get routes by hash.
	row, err := tx.GetRow("orders", 17)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].(int64) != 17 || row[1].(int64) != 1 {
		t.Fatalf("got row %v", row)
	}
	// A one-key index range gathers the point lookup from all shards.
	rows, err := indexRows(tx, "orders", "by_customer", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("customer 3 has %d orders, want 10", len(rows))
	}
	// Index range merges in index-key order.
	var ikeys []int64
	if err := tx.IndexRange("orders", "by_customer", 1, 2, func(ik int64, row tuple.Row) bool {
		ikeys = append(ikeys, ik)
		if row[1].(int64) != ik {
			t.Fatalf("row %v under index key %d", row, ik)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ikeys) != 20 {
		t.Fatalf("index range saw %d rows, want 20", len(ikeys))
	}
	if !sort.SliceIsSorted(ikeys, func(a, b int) bool { return ikeys[a] < ikeys[b] }) {
		t.Fatal("index range not in index-key order")
	}
	// Table scan merges in primary-key order with LIMIT-style early exit.
	var pks []int64
	if err := tx.ScanTable("orders", 5, 35, func(row tuple.Row) bool {
		pks = append(pks, row[0].(int64))
		return len(pks) < 7
	}); err != nil {
		t.Fatal(err)
	}
	if len(pks) != 7 || pks[0] != 5 || pks[6] != 11 {
		t.Fatalf("scan prefix %v", pks)
	}
	// Unknown names surface the catalog sentinels.
	if _, err := tx.GetRow("nope", 1); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := indexRows(tx, "orders", "nope", 1); !errors.Is(err, engine.ErrNoIndex) {
		t.Fatalf("unknown index: %v", err)
	}
}

// TestAsOfAcrossShards pins a token vector and verifies time travel holds on
// every access path while current transactions see fresh state, and that AS
// OF transactions reject writes.
func TestAsOfAcrossShards(t *testing.T) {
	r := newRouter(t, 3)
	if err := r.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}
	tx := r.Begin()
	for i := int64(1); i <= 12; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, int64(1), "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tokens := r.SnapshotTokens()
	if len(tokens) != 3 {
		t.Fatalf("token vector %v", tokens)
	}

	// Post-token churn on every shard: reassign all orders to customer 2,
	// delete one, insert one.
	tx = r.Begin()
	for i := int64(1); i <= 12; i++ {
		if err := tx.UpdateRow("orders", tuple.Row{i, int64(2), "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.DeleteRow("orders", 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertRow("orders", tuple.Row{int64(13), int64(2), "n"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	asOf, err := r.BeginAt(tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer asOf.Abort()
	if !asOf.AsOf() {
		t.Fatal("AsOf() false on a pinned transaction")
	}
	rows, err := indexRows(asOf, "orders", "by_customer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("AS OF sees %d orders for customer 1, want 12", len(rows))
	}
	if row, err := asOf.GetRow("orders", 5); err != nil {
		t.Fatalf("AS OF read of later-deleted row: %v (row %v)", err, row)
	}
	if _, err := asOf.GetRow("orders", 13); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("AS OF sees later-inserted row: %v", err)
	}
	count := 0
	if err := asOf.ScanTable("orders", 1, 100, func(tuple.Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Fatalf("AS OF scan saw %d rows, want 12", count)
	}
	// Writes on a pinned snapshot are rejected.
	if err := asOf.InsertRow("orders", tuple.Row{int64(99), int64(9), "x"}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("AS OF insert: %v, want ErrReadOnly", err)
	}
	if err := asOf.DeleteRow("orders", 1); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("AS OF delete: %v, want ErrReadOnly", err)
	}

	// Current state is the new world.
	cur := r.Begin()
	defer cur.Abort()
	rows, err = indexRows(cur, "orders", "by_customer", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 12 reassigned - 1 deleted + 1 inserted
		t.Fatalf("current sees %d orders for customer 2, want 12", len(rows))
	}
	// Bad token vector length is rejected.
	if _, err := r.BeginAt(tokens[:1]); err == nil {
		t.Fatal("short token vector accepted")
	}
}

// TestDropIndexAcrossShards drops an index and checks lookups fail on every
// shard afterwards.
func TestDropIndexAcrossShards(t *testing.T) {
	r := newRouter(t, 2)
	if err := r.CreateTable("t", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("t", "i", "customer"); err != nil {
		t.Fatal(err)
	}
	if err := r.DropIndex("t", "i"); err != nil {
		t.Fatal(err)
	}
	tx := r.Begin()
	defer tx.Abort()
	if _, err := indexRows(tx, "t", "i", 1); !errors.Is(err, engine.ErrNoIndex) {
		t.Fatalf("lookup on dropped index: %v", err)
	}
	if err := r.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TableMeta("t"); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("dropped table still resolves: %v", err)
	}
}
