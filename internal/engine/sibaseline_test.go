package engine

import (
	"errors"
	"strings"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/tuple"
	"sias/internal/wal"
)

// servedOnly is the SI half of a test of a path only a served engine takes:
// recovery, follower apply, logged DDL, AS OF retention. The SI baseline runs
// in the simulator alone and refuses every such path, so for KindSI it checks
// those refusals and reports true, and the caller stops there.
func servedOnly(t *testing.T, kind Kind) bool {
	t.Helper()
	if kind != KindSI {
		return false
	}
	checkSIRefusals(t)
	return true
}

// checkSIRefusals asserts that each path only a served engine takes returns
// ErrSIBaseline on a KindSI DB, and that no refusal appends to the log.
func checkSIRefusals(t *testing.T) {
	t.Helper()
	siOpts := func() Options {
		opts := DefaultOptions(device.NewMem(page.Size, 1<<10), device.NewMem(page.Size, 1<<9))
		opts.Kind = KindSI
		return opts
	}
	for name, tweak := range map[string]func(*Options){
		"Recover":     func(o *Options) { o.Recover = true },
		"GCRetention": func(o *Options) { o.GCRetention = 1 },
	} {
		opts := siOpts()
		tweak(&opts)
		if db, err := Open(opts); !errors.Is(err, ErrSIBaseline) || db != nil {
			t.Errorf("Open(KindSI, %s) = %v, %v; want ErrSIBaseline", name, db, err)
		}
	}

	db, err := Open(siOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.CreateTable(0, "accounts", testSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	lsn := db.WAL().NextLSN()
	_, _, createTable := db.CreateTableLogged(0, "orders", testSchema(), "id")
	_, createIndex := db.CreateIndexLogged(0, "accounts", "by_balance", "balance")
	_, dropIndex := db.DropIndexLogged(0, "accounts", "by_balance")
	_, dropTable := db.DropTableLogged(0, "accounts")
	db.SetReplica(true)
	_, apply := db.ApplyRecord(0, &wal.Record{Type: wal.RecCommit, Tx: 1})
	_, refresh := db.RefreshReplica(0)
	_, promote := db.Promote(0)
	for name, err := range map[string]error{
		"CreateTableLogged": createTable, "CreateIndexLogged": createIndex,
		"DropIndexLogged": dropIndex, "DropTableLogged": dropTable,
		"ApplyRecord": apply, "RefreshReplica": refresh, "Promote": promote,
	} {
		if !errors.Is(err, ErrSIBaseline) {
			t.Errorf("%s on a KindSI DB: err=%v, want ErrSIBaseline", name, err)
		}
	}
	if got := db.WAL().NextLSN(); got != lsn {
		t.Errorf("refused paths logged %d bytes", got-lsn)
	}
	if db.Table("accounts") == nil {
		t.Error("a refused DropTableLogged removed the table")
	}
}

// TestSIBaselineRefusesServedPaths pins that the SI baseline, the simulator's
// comparison engine, refuses with one sentinel everything only a served
// engine does: recover or resume a log, retain versions for AS OF tokens,
// apply a primary's records as a follower, and log DDL.
func TestSIBaselineRefusesServedPaths(t *testing.T) {
	checkSIRefusals(t)
}

// TestRecoverRejectsInPlaceRecords pins that redo gives the SI baseline's
// in-place records no meaning: a SIAS log holding a RecHeapOverwrite, or a
// RecHeapDead for one slot rather than a whole block, fails Recover with an
// error that names the record type instead of editing the page.
func TestRecoverRejectsInPlaceRecords(t *testing.T) {
	for _, rec := range []wal.Record{
		{Type: wal.RecHeapOverwrite, Data: []byte("after-image")},
		{Type: wal.RecHeapDead},
	} {
		t.Run(rec.Type.String(), func(t *testing.T) {
			data := device.NewMem(page.Size, 1<<12)
			walDev := device.NewMem(page.Size, 1<<10)
			opts := DefaultOptions(data, walDev)
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			if at, err = tab.Insert(tx, at, tuple.Row{int64(1), "a", int64(1)}); err != nil {
				t.Fatal(err)
			}
			if at, err = db.Commit(tx, at); err != nil {
				t.Fatal(err)
			}
			rec.Rel = tab.heapID()
			rec.TID = page.TID{Block: 0, Slot: 0}
			w := db.WAL()
			if _, err := w.Flush(at, w.Append(&rec)); err != nil {
				t.Fatal(err)
			}
			db.Pool().InvalidateAll()

			opts.Recover = true
			db2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := db2.CreateTable(0, "accounts", testSchema(), "id"); err != nil {
				t.Fatal(err)
			}
			_, err = db2.Recover(0)
			if err == nil || !strings.Contains(err.Error(), rec.Type.String()) {
				t.Fatalf("Recover over a log holding a %s record: err=%v, want an error naming it", rec.Type, err)
			}
		})
	}
}
