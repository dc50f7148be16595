package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/repl"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/wire"
)

func ordersSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeInt64},
		tuple.Column{Name: "customer", Type: tuple.TypeInt64},
		tuple.Column{Name: "note", Type: tuple.TypeString},
	)
}

// TestServerCatalogEndToEnd drives the whole catalog surface over the wire
// against a 3-shard server: DDL, typed row ops, secondary index lookups and
// range scans, snapshot tokens with AS OF reads, LIST_TABLES-based schema
// discovery by a second client, and the per-table STATS breakdown.
func TestServerCatalogEndToEnd(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 3), nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("orders", ordersSchema(), "id"); !errors.Is(err, engine.ErrExists) {
		t.Fatalf("duplicate CREATE TABLE: %v, want engine.ErrExists", err)
	}
	if err := c.CreateIndex("orders", "nope_col", "missing"); err == nil {
		t.Fatal("CREATE INDEX on a missing column succeeded")
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 30; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, i % 3, "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Snapshot before the churn: the AS OF baseline.
	tokens, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 3 {
		t.Fatalf("snapshot vector has %d tokens, want 3", len(tokens))
	}

	tx, err = c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Reassign order 9 (customer 0 -> customer 1), delete 12, insert 31.
	if err := tx.UpdateRow("orders", tuple.Row{int64(9), int64(1), "moved"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteRow("orders", 12); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertRow("orders", tuple.Row{int64(31), int64(1), "new"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Current state through every read path.
	cur, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	row, err := cur.GetRow("orders", 9)
	if err != nil || row[1].(int64) != 1 || row[2].(string) != "moved" {
		t.Fatalf("GetRow(9) = %v, %v", row, err)
	}
	if _, err := cur.GetRow("orders", 12); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted row: %v, want engine.ErrNotFound", err)
	}
	rows, err := cur.IndexRange("orders", "by_customer", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 10 original + order 9 moved in + order 31
		t.Fatalf("IndexRange(customer=1) returned %d rows, want 12", len(rows))
	}
	ents, err := cur.IndexRange("orders", "by_customer", 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 30 { // 30 - 1 deleted + 1 inserted
		t.Fatalf("IndexRange saw %d rows, want 30", len(ents))
	}
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Key > ents[i].Key {
			t.Fatal("IndexRange not in index-key order")
		}
	}
	head, err := cur.ScanRows("orders", 1, 100, 5)
	if err != nil || len(head) != 5 || head[4][0].(int64) != 5 {
		t.Fatalf("limited ScanRows: %v, %v", head, err)
	}
	if _, err := cur.IndexRange("orders", "ghost", 1, 1, 0); !errors.Is(err, engine.ErrNoIndex) {
		t.Fatalf("unknown index: %v, want engine.ErrNoIndex", err)
	}
	if err := cur.Commit(); err != nil {
		t.Fatal(err)
	}

	// AS OF the pre-churn snapshot: the old world, on every path.
	asOf, err := c.BeginAt(tokens)
	if err != nil {
		t.Fatal(err)
	}
	row, err = asOf.GetRow("orders", 9)
	if err != nil || row[1].(int64) != 0 || row[2].(string) != "n" {
		t.Fatalf("AS OF GetRow(9) = %v, %v", row, err)
	}
	if row, err := asOf.GetRow("orders", 12); err != nil {
		t.Fatalf("AS OF read of later-deleted row: %v (%v)", err, row)
	}
	if _, err := asOf.GetRow("orders", 31); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("AS OF sees later-inserted row: %v", err)
	}
	rows, err = asOf.IndexRange("orders", "by_customer", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("AS OF IndexRange(customer=1) returned %d rows, want 10", len(rows))
	}
	all, err := asOf.ScanRows("orders", 1, 100, 0)
	if err != nil || len(all) != 30 {
		t.Fatalf("AS OF scan saw %d rows, want 30 (%v)", len(all), err)
	}
	// Writes on the pinned snapshot are rejected with the typed error.
	if err := asOf.InsertRow("orders", tuple.Row{int64(99), int64(9), "x"}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("AS OF insert: %v, want engine.ErrReadOnly", err)
	}
	if err := asOf.Abort(); err != nil {
		t.Fatal(err)
	}

	// A second client discovers the schema via LIST_TABLES.
	c2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	tds, err := c2.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	var orders *server.TableDesc
	for i := range tds {
		if tds[i].Name == "orders" {
			orders = &tds[i]
		}
	}
	if orders == nil || orders.PK != "id" || len(orders.Cols) != 3 {
		t.Fatalf("LIST_TABLES orders entry: %+v", orders)
	}
	if len(orders.Indexes) != 1 || orders.Indexes[0].Name != "by_customer" || orders.Indexes[0].Column != "customer" {
		t.Fatalf("LIST_TABLES orders indexes: %+v", orders.Indexes)
	}
	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if row, err := tx2.GetRow("orders", 3); err != nil || row[1].(int64) != 0 {
		t.Fatalf("second client GetRow: %v, %v", row, err)
	}
	tx2.Abort()

	// Per-table STATS and the index counters made it to the wire.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var ts *engine.TableStats
	for i := range st.Engine.Tables {
		if st.Engine.Tables[i].Name == "orders" {
			ts = &st.Engine.Tables[i]
		}
	}
	if ts == nil {
		t.Fatal("STATS has no per-table entry for orders")
	}
	// Rows counts primary-index entries: 30 initial + 1 insert; the deleted
	// row's entry remains (tombstones keep their index entries in SIAS).
	if ts.Rows != 31 || ts.Indexes != 1 {
		t.Fatalf("orders table stats: %+v", ts)
	}
	if st.Engine.IndexLookups == 0 || st.Engine.IndexInserts == 0 {
		t.Fatalf("aggregate index counters: lookups=%d inserts=%d",
			st.Engine.IndexLookups, st.Engine.IndexInserts)
	}
}

// TestServerUnknownOpKeepsSession is the ERR_BAD_OP regression test: an
// unknown opcode must be answered with wire.CodeBadOp on the same connection,
// and the connection must keep serving requests afterwards. Opcode 23 (the
// retired INDEX_LOOKUP) is unknown too: a well-formed frame of it, on an open
// transaction against an indexed table, is refused like any other.
func TestServerUnknownOpKeepsSession(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 1), nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	refused := func(what string, op uint8, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(nc, op, payload); err != nil {
			t.Fatal(err)
		}
		tag, msg, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatalf("connection dropped on %s: %v", what, err)
		}
		if wire.Code(tag) != wire.CodeBadOp {
			t.Fatalf("%s answered %s, want %s", what, wire.Code(tag), wire.CodeBadOp)
		}
		if len(msg) == 0 {
			t.Fatalf("ERR_BAD_OP reply to %s carries no message", what)
		}
	}

	// An opcode from far in the future.
	refused("op 250", 250, []byte{1, 2, 3})

	// The same connection still works: BEGIN, the retired op inside the
	// transaction, then COMMIT.
	if err := wire.WriteFrame(nc, uint8(wire.OpBegin), nil); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := wire.ReadFrame(nc)
	if err != nil || wire.Code(tag) != wire.CodeOK {
		t.Fatalf("BEGIN after unknown op: tag=%d err=%v", tag, err)
	}
	r := wire.Reader{B: payload}
	h, err := r.U64()
	if err != nil {
		t.Fatal(err)
	}
	var lookup wire.Buf
	lookup.U64(h)
	lookup.Bytes([]byte("orders"))
	lookup.Bytes([]byte("by_customer"))
	lookup.I64(1)
	refused("retired op 23", 23, lookup.B)

	var b wire.Buf
	b.U64(h)
	if err := wire.WriteFrame(nc, uint8(wire.OpCommit), b.B); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := wire.ReadFrame(nc); err != nil || wire.Code(tag) != wire.CodeOK {
		t.Fatalf("COMMIT after unknown op: tag=%d err=%v", tag, err)
	}
}

// TestServerCatalogCrashRecovery creates a table and index over the wire,
// loads rows, captures a snapshot vector, churns, then kills the server
// without drain or checkpoint. A restart over the same devices must replay
// the WAL-logged DDL (no manual schema recreation), rebuild the index, and
// still answer AS OF reads at the pre-crash snapshot.
func TestServerCatalogCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	openDevices := func() (*device.File, *device.File) {
		data, err := device.OpenFile(filepath.Join(dir, "data.img"), page.Size, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		walDev, err := device.OpenFile(filepath.Join(dir, "wal.img"), page.Size, 1<<13)
		if err != nil {
			t.Fatal(err)
		}
		return data, walDev
	}

	data, walDev := openDevices()
	srv, err := server.New(server.Config{Router: routerOf(t, openKV(t, data, walDev, false))})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, int64(7), "pre"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tokens, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Post-snapshot churn, committed (so it survives the crash) but newer
	// than the tokens (so AS OF must hide it).
	tx, err = c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := tx.UpdateRow("orders", tuple.Row{i, int64(8), "post"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash: no drain, no checkpoint.
	srv.Kill()
	<-serveErr
	c.Close()
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	if err := walDev.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with recovery. openKV recreates only the bootstrap kv table;
	// orders and by_customer must come back from the replayed DDL records.
	data2, walDev2 := openDevices()
	defer data2.Close()
	defer walDev2.Close()
	_, addr2 := startServer(t, routerOf(t, openKV(t, data2, walDev2, true)), nil)
	c2, err := client.Dial(addr2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	tds, err := c2.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, td := range tds {
		if td.Name == "orders" && len(td.Indexes) == 1 && td.Indexes[0].Name == "by_customer" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered catalog lost orders/by_customer: %+v", tds)
	}

	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tx2.IndexRange("orders", "by_customer", 8, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("recovered index lookup(8) returned %d rows, want 20", len(rows))
	}
	if rows2, err := tx2.IndexRange("orders", "by_customer", 7, 7, 0); err != nil || len(rows2) != 0 {
		t.Fatalf("recovered index lookup(7): %d rows, %v, want 0", len(rows2), err)
	}
	tx2.Commit()

	// The pre-crash snapshot vector still resolves: recovery rebuilt the
	// CLOG and restored the id sequence past the tokens.
	asOf, err := c2.BeginAt(tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer asOf.Abort()
	row, err := asOf.GetRow("orders", 5)
	if err != nil || row[1].(int64) != 7 || row[2].(string) != "pre" {
		t.Fatalf("AS OF across the crash: %v, %v (want customer=7 note=pre)", row, err)
	}
	rows, err = asOf.IndexRange("orders", "by_customer", 7, 7, 0)
	if err != nil || len(rows) != 20 {
		t.Fatalf("AS OF index lookup across the crash: %d rows, %v, want 20", len(rows), err)
	}
}

// TestFollowerServesCatalogReads replicates wire-issued DDL to a live
// follower: the RecDDL records ship like any others, the follower replays
// them, serves indexed and AS OF reads, and rejects typed writes and DDL
// with the read-only error until promotion.
func TestFollowerServesCatalogReads(t *testing.T) {
	prim := routerOf(t, openKV(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false))
	psrv, err := server.New(server.Config{Router: prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := make(chan error, 1)
	go func() { pErr <- psrv.Serve(pln) }()
	defer func() {
		psrv.Shutdown(context.Background())
		<-pErr
	}()

	// Follower shard: replica mode before the bootstrap table, like the
	// repl package's own tests.
	fopts := engine.DefaultOptions(device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14))
	fdb, err := engine.Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	fdb.SetReplica(true)
	ftab, _, err := fdb.CreateTable(0, "kv", kvSchema(), "k")
	if err != nil {
		t.Fatal(err)
	}
	fsh := shard.Shard{Facade: engine.NewFacade(fdb), Table: ftab}
	f, err := repl.NewFollower(repl.Config{
		PrimaryAddr: pln.Addr().String(),
		Shards:      []*engine.Facade{fsh.Facade},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	defer f.Stop()

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := pc.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}
	tx, err := pc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 15; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, i % 2, "r"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	fsrv, err := server.New(server.Config{Router: routerOf(t, fsh), Replica: f})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fErr := make(chan error, 1)
	go func() { fErr <- fsrv.Serve(fln) }()
	defer func() {
		fsrv.Shutdown(context.Background())
		<-fErr
	}()

	fc, err := client.Dial(fln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// The follower's catalog comes off the stream; wait on the data itself
	// (the replayed table, its index, and all 15 rows) rather than LSN
	// bookkeeping, which can report "caught up" between stream batches.
	for {
		tds, err := fc.ListTables()
		if err != nil {
			t.Fatal(err)
		}
		replayed := false
		for _, td := range tds {
			if td.Name == "orders" && len(td.Indexes) == 1 {
				replayed = true
			}
		}
		if replayed {
			ftx, err := fc.Begin()
			if err != nil {
				t.Fatal(err)
			}
			rows, err := ftx.IndexRange("orders", "by_customer", 1, 1, 0)
			ftx.Abort()
			if err != nil && !errors.Is(err, engine.ErrNoIndex) {
				t.Fatal(err)
			}
			if len(rows) == 8 { // ids 1,3,5,7,9,11,13,15
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never replayed the catalog DDL and rows")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ftx, err := fc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := ftx.InsertRow("orders", tuple.Row{int64(99), int64(1), "w"}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("follower typed write: %v, want engine.ErrReadOnly", err)
	}
	ftx.Abort()
	// DDL is rejected on an unpromoted follower.
	if err := fc.CreateTable("other", ordersSchema(), "id"); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("follower DDL: %v, want engine.ErrReadOnly", err)
	}
	// AS OF on the follower: tokens come from the follower's own applied
	// horizon (its id space mirrors the primary's log).
	toks, err := fc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fAsOf, err := fc.BeginAt(toks)
	if err != nil {
		t.Fatal(err)
	}
	defer fAsOf.Abort()
	if rows, err := fAsOf.IndexRange("orders", "by_customer", 0, 0, 0); err != nil || len(rows) != 7 {
		t.Fatalf("follower AS OF IndexRange(customer=0): %d rows, %v, want 7", len(rows), err)
	}
}

// indexAnswers runs every index read a client has against by_customer and
// flattens the answers for comparison.
func indexAnswers(t *testing.T, c *client.Client) string {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	out := ""
	for key := int64(0); key < 3; key++ {
		rows, err := tx.IndexRange("orders", "by_customer", key, key, 0)
		if err != nil {
			t.Fatalf("INDEX_RANGE %d: %v", key, err)
		}
		out += fmt.Sprintf("lookup %d: %v\n", key, rows)
	}
	ents, err := tx.IndexRange("orders", "by_customer", 0, 2, 0)
	if err != nil {
		t.Fatalf("INDEX_RANGE: %v", err)
	}
	return out + fmt.Sprintf("range: %v\n", ents)
}

// TestCreateIndexCoversExistingRows pins the CREATE INDEX bugfix over the
// wire: an index created on a populated table answers for the rows that were
// already there — on the live primary (which used to return nothing until its
// next restart), on a live follower that received the DDL through the stream,
// and after a crash-restart of each. All four must say the same.
func TestCreateIndexCoversExistingRows(t *testing.T) {
	pdata, pwal := device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14)
	psrv, err := server.New(server.Config{Router: routerOf(t, openKV(t, pdata, pwal, false))})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := make(chan error, 1)
	go func() { pErr <- psrv.Serve(pln) }()

	fdata, fwal := device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14)
	openFollower := func(restart bool) shard.Shard {
		opts := engine.DefaultOptions(fdata, fwal)
		opts.Recover = restart
		db, err := engine.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		db.SetReplica(true)
		tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
		if err != nil {
			t.Fatal(err)
		}
		if restart {
			if _, err := db.Recover(0); err != nil {
				t.Fatal(err)
			}
			db.SetReplica(true)
		}
		return shard.Shard{Facade: engine.NewFacade(db), Table: tab}
	}
	fsh := openFollower(false)
	f, err := repl.NewFollower(repl.Config{
		PrimaryAddr: pln.Addr().String(),
		Shards:      []*engine.Facade{fsh.Facade},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	fsrv, err := server.New(server.Config{Router: routerOf(t, fsh), Replica: f})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fErr := make(chan error, 1)
	go func() { fErr <- fsrv.Serve(fln) }()

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	tx, err := pc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 30; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, i % 3, "pre-ddl"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The index comes after the rows.
	if err := pc.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}

	livePrimary := indexAnswers(t, pc)
	tx, err = pc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tx.IndexRange("orders", "by_customer", 1, 1, 0)
	tx.Abort()
	if err != nil || len(rows) != 10 {
		t.Fatalf("live primary: INDEX_RANGE(customer=1) returned %d rows (%v), want the 10 inserted before CREATE INDEX", len(rows), err)
	}

	fc, err := client.Dial(fln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tds, err := fc.ListTables()
		if err != nil {
			t.Fatal(err)
		}
		if len(tds) == 2 && len(tds[0].Indexes)+len(tds[1].Indexes) == 1 {
			break // the DDL is the last thing the primary logged
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never replayed CREATE INDEX")
		}
		time.Sleep(5 * time.Millisecond)
	}
	liveFollower := indexAnswers(t, fc)

	// Crash both: no drain, no checkpoint, buffer pools gone.
	pc.Close()
	fc.Close()
	f.Stop()
	fsrv.Kill()
	<-fErr
	psrv.Kill()
	<-pErr

	_, paddr := startServer(t, routerOf(t, openKV(t, pdata, pwal, true)), nil)
	pc2, err := client.Dial(paddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	restartedPrimary := indexAnswers(t, pc2)
	_, faddr := startServer(t, routerOf(t, openFollower(true)), nil)
	fc2, err := client.Dial(faddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc2.Close()
	restartedFollower := indexAnswers(t, fc2)

	for name, got := range map[string]string{
		"live follower":      liveFollower,
		"restarted primary":  restartedPrimary,
		"restarted follower": restartedFollower,
	} {
		if got != livePrimary {
			t.Errorf("%s disagrees with the live primary:\n%s\nvs\n%s", name, got, livePrimary)
		}
	}
}
