package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/catalog"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// TestLoggedDDLSurvivesCrash creates a table and an index through the logged
// DDL path, writes rows, crashes without a checkpoint, and recovers with NO
// manual schema recreation: the RecDDL records alone must bring the table and
// index back, contents included.
func TestLoggedDDLSurvivesCrash(t *testing.T) {
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
			tab, at, err := db.CreateTableLogged(0, "orders", tuple.NewSchema(
				tuple.Column{Name: "id", Type: tuple.TypeInt64},
				tuple.Column{Name: "customer", Type: tuple.TypeInt64},
				tuple.Column{Name: "note", Type: tuple.TypeString},
			), "id")
			if err != nil {
				t.Fatal(err)
			}
			if at, err = db.CreateIndexLogged(at, "orders", "orders_by_customer", "customer"); err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 30; i++ {
				tx := db.Begin()
				at, err = tab.Insert(tx, at, tuple.Row{i, i % 5, fmt.Sprintf("o%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			// CRASH: buffered pages are lost, only the WAL survives.
			db.Pool().InvalidateAll()

			ropts := DefaultOptions(data, walDev)
			ropts.Kind = k
			ropts.Recover = true
			db2, err := Open(ropts)
			if err != nil {
				t.Fatal(err)
			}
			// No CreateTable call: recovery must replay the DDL records.
			if _, err := db2.Recover(0); err != nil {
				t.Fatal(err)
			}
			tab2 := db2.Table("orders")
			if tab2 == nil {
				t.Fatal("table orders did not survive recovery")
			}
			idx, err := tab2.SecondaryIndex("orders_by_customer")
			if err != nil {
				t.Fatalf("index did not survive recovery: %v", err)
			}
			tx := db2.Begin()
			rows, at2, err := pointRows(tab2, tx, 0, idx, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 6 { // 2, 7, 12, 17, 22, 27
				t.Fatalf("customer 2 has %d rows after recovery, want 6", len(rows))
			}
			for _, r := range rows {
				if r[1].(int64) != 2 {
					t.Fatalf("index returned row with customer %v", r[1])
				}
			}
			if _, _, err := getRow(tab2, tx, at2, 17); err != nil {
				t.Fatalf("row 17 lost: %v", err)
			}
			db2.Abort(tx, at2)
		})
	}
}

// TestDDLReplayIdempotentOverBootstrap verifies that recovery skips a DDL
// record whose table the process already pre-created (the bootstrap pattern)
// while still advancing the relation-id counter.
func TestDDLReplayIdempotentOverBootstrap(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTableLogged(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	at, err = tab.Insert(tx, at, tuple.Row{int64(1), "a", int64(10)})
	if err != nil {
		t.Fatal(err)
	}
	at, _ = db.Commit(tx, at)
	db.Pool().InvalidateAll()

	ropts := DefaultOptions(data, walDev)
	ropts.Kind = KindSIAS
	ropts.Recover = true
	db2, err := Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-create the same schema before Recover, as a bootstrap caller would.
	tab2, _, err := db2.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Recover(at); err != nil {
		t.Fatal(err)
	}
	if db2.Table("accounts") != tab2 {
		t.Fatal("DDL replay replaced the pre-created table")
	}
	rtx := db2.Begin()
	row, at2, err := getRow(tab2, rtx, at, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row[2].(int64) != 10 {
		t.Fatalf("got balance %v, want 10", row[2])
	}
	db2.Abort(rtx, at2)
	// A table created after recovery must not collide with replayed ids.
	if _, _, err := db2.CreateTableLogged(at2, "fresh", testSchema(), "id"); err != nil {
		t.Fatal(err)
	}
}

// TestNonIndexedUpdateWritesZeroIndexPages is the paper's Section 6 claim in
// executable form: under SIAS, updating a column that no secondary index
// covers must write ZERO secondary-index pages, because <key, VID> entries
// keep pointing at the version chain entrypoint. The SI baseline, which
// reindexes every new version, writes plenty — asserting both directions
// keeps the counter honest.
func TestNonIndexedUpdateWritesZeroIndexPages(t *testing.T) {
	pageWritesAfterUpdates := func(k Kind) int64 {
		db, tab := openTestDB(t, k)
		// Index the id column (stable under balance updates).
		idx, at, err := tab.AddSecondaryIndex(0, "accounts_by_id", column(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 50; i++ {
			tx := db.Begin()
			at, err = tab.Insert(tx, at, tuple.Row{i, "x", int64(0)})
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(tx, at)
		}
		base := tab.SecondaryPageWrites(idx)
		// 200 updates of the non-indexed balance column.
		for round := 0; round < 4; round++ {
			for i := int64(1); i <= 50; i++ {
				tx := db.Begin()
				at, err = tab.Update(tx, at, i, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = r[2].(int64) + 1
					return r, nil
				}))
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
		}
		return tab.SecondaryPageWrites(idx) - base
	}

	if n := pageWritesAfterUpdates(KindSIAS); n != 0 {
		t.Fatalf("SIAS wrote %d secondary-index pages for non-indexed-column updates, want 0", n)
	}
	if n := pageWritesAfterUpdates(KindSI); n == 0 {
		t.Fatal("SI baseline wrote 0 index pages — the counter is not measuring anything")
	}
}

// TestAsOfReadsSeeHistoricalState pins read-only transactions at snapshot
// tokens and verifies they see the database as it was: rows later updated
// show old values, rows later inserted are absent, and index scans resolve
// through the same snapshot.
func TestAsOfReadsSeeHistoricalState(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			var at simclock.Time
			var err error
			insert := func(id, bal int64) {
				tx := db.Begin()
				at, err = tab.Insert(tx, at, tuple.Row{id, "u", bal})
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			update := func(id, bal int64) {
				tx := db.Begin()
				at, err = tab.Update(tx, at, id, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = bal
					return r, nil
				}))
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			for i := int64(1); i <= 10; i++ {
				insert(i, i*100)
			}
			token := db.SnapshotToken()
			// Future relative to the token: updates and new rows.
			update(3, -1)
			insert(11, 1100)

			asOf := db.BeginReadOnlyAt(token)
			row, at2, err := getRow(tab, asOf, at, 3)
			if err != nil {
				t.Fatal(err)
			}
			if row[2].(int64) != 300 {
				t.Fatalf("AS OF read of row 3: balance %v, want 300 (pre-update)", row[2])
			}
			if _, _, err := getRow(tab, asOf, at2, 11); !errors.Is(err, ErrNotFound) {
				t.Fatalf("AS OF read sees row inserted after the token: err=%v", err)
			}
			count := 0
			at2, err = tab.RangeByKey(asOf, at2, 1, 100, rowVisit(func(tuple.Row) bool {
				count++
				return true
			}))
			if err != nil {
				t.Fatal(err)
			}
			if count != 10 {
				t.Fatalf("AS OF range saw %d rows, want 10", count)
			}
			// The snapshot takes no writes, and refusing one logs nothing.
			lsn := db.WAL().NextLSN()
			_, ierr := tab.Insert(asOf, at2, tuple.Row{int64(12), "u", int64(0)})
			_, uerr := tab.Update(asOf, at2, 3, rowUpdate(func(r tuple.Row) (tuple.Row, error) { return r, nil }))
			_, derr := tab.Delete(asOf, at2, 3)
			for op, err := range map[string]error{"Insert": ierr, "Update": uerr, "Delete": derr} {
				if !errors.Is(err, ErrReadOnly) {
					t.Errorf("%s under an AS OF transaction: err=%v, want ErrReadOnly", op, err)
				}
			}
			if got := db.WAL().NextLSN(); got != lsn {
				t.Errorf("refused AS OF writes logged %d bytes", got-lsn)
			}
			db.Abort(asOf, at2)

			// A fresh (current) read sees the new state.
			cur := db.Begin()
			row, at2, err = getRow(tab, cur, at, 3)
			if err != nil {
				t.Fatal(err)
			}
			if row[2].(int64) != -1 {
				t.Fatalf("current read of row 3: balance %v, want -1", row[2])
			}
			db.Abort(cur, at2)
		})
	}
}

// TestAsOfThroughSecondaryIndex verifies index-driven AS OF scans: an indexed
// column update moves the row between index keys, and a pinned snapshot must
// resolve the OLD value through the version chain while current reads see the
// new one.
func TestAsOfThroughSecondaryIndex(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab, at := ordersFixture(t, k, 0, 0)
			idx, err := tab.SecondaryIndex("by_customer")
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 6; i++ {
				tx := db.Begin()
				at, err = tab.Insert(tx, at, tuple.Row{i, int64(7)})
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			token := db.SnapshotToken()
			// Reassign order 4 to customer 9 after the token.
			tx := db.Begin()
			at, err = tab.Update(tx, at, 4, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[1] = int64(9)
				return r, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(tx, at)

			asOf := db.BeginReadOnlyAt(token)
			rows, at2, err := pointRows(tab, asOf, at, idx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 6 {
				t.Fatalf("AS OF index lookup: customer 7 has %d orders, want 6", len(rows))
			}
			rows, at2, err = pointRows(tab, asOf, at2, idx, 9)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 0 {
				t.Fatalf("AS OF index lookup: customer 9 has %d orders, want 0", len(rows))
			}
			db.Abort(asOf, at2)

			cur := db.Begin()
			rows, at2, err = pointRows(tab, cur, at, idx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 5 {
				t.Fatalf("current index lookup: customer 7 has %d orders, want 5", len(rows))
			}
			rows, at2, err = pointRows(tab, cur, at2, idx, 9)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 {
				t.Fatalf("current index lookup: customer 9 has %d orders, want 1", len(rows))
			}
			db.Abort(cur, at2)
		})
	}
}

// TestIndexEntryDedupOnKeyReentry pins the set semantics of multi-version
// index entries: a row that leaves an index key and later re-enters it finds
// its old <key, VID> entry still valid (entries are never removed) and must
// not add a second one — otherwise lookups at snapshots where the row held
// the key would count it once per stint. The AS OF snapshot is pinned
// before the churn, so neither SIAS GC nor SI's inline pruning may reclaim
// what it reads.
func TestIndexEntryDedupOnKeyReentry(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab, at := ordersFixture(t, k, 0, 8)
			idx, err := tab.SecondaryIndex("by_customer")
			if err != nil {
				t.Fatal(err)
			}
			asOf := db.BeginReadOnlyAt(db.SnapshotToken())
			move := func(id, to int64) {
				tx := db.Begin()
				at, err = tab.Update(tx, at, id, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[1] = to
					return r, nil
				}))
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			// Row 3 leaves customer 7 and comes back, twice.
			move(3, 9)
			move(3, 7)
			move(3, 9)
			move(3, 7)

			cur := db.Begin()
			rows, at2, err := pointRows(tab, cur, at, idx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 8 {
				t.Fatalf("current lookup: customer 7 has %d rows after re-entry churn, want 8", len(rows))
			}
			db.Abort(cur, at2)

			rows, at2, err = pointRows(tab, asOf, at, idx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 8 {
				t.Fatalf("AS OF lookup: customer 7 has %d rows at pre-churn snapshot, want 8", len(rows))
			}
			rows, at2, err = pointRows(tab, asOf, at2, idx, 9)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 0 {
				t.Fatalf("AS OF lookup: customer 9 has %d rows at pre-churn snapshot, want 0", len(rows))
			}
			db.Abort(asOf, at2)
		})
	}
}

// TestDropIndexAndTable exercises the drop paths: a dropped index stops
// serving lookups, a dropped table disappears from the catalog, and both
// survive crash recovery (the drops replay too).
func TestDropIndexAndTable(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTableLogged(0, "t1", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if at, err = db.CreateIndexLogged(at, "t1", "i1", "balance"); err != nil {
		t.Fatal(err)
	}
	if _, _, err = db.CreateTableLogged(at, "t2", testSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	at, err = tab.Insert(tx, at, tuple.Row{int64(1), "a", int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	at, _ = db.Commit(tx, at)

	if at, err = db.DropIndexLogged(at, "t1", "i1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SecondaryIndex("i1"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("dropped index still resolves: %v", err)
	}
	if at, err = db.DropTableLogged(at, "t2"); err != nil {
		t.Fatal(err)
	}
	if db.Table("t2") != nil {
		t.Fatal("dropped table still in catalog")
	}
	// Duplicate-create after drop must succeed; duplicate of live must not.
	if _, _, err := db.CreateTableLogged(at, "t1", testSchema(), "id"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: err=%v, want ErrExists", err)
	}
	if at, err = db.CreateIndexLogged(at, "t1", "i1", "balance"); err != nil {
		t.Fatalf("re-create of dropped index name: %v", err)
	}
	if at, err = db.DropIndexLogged(at, "t1", "i1"); err != nil {
		t.Fatal(err)
	}

	db.Pool().InvalidateAll()
	ropts := DefaultOptions(data, walDev)
	ropts.Kind = KindSIAS
	ropts.Recover = true
	db2, err := Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Recover(at); err != nil {
		t.Fatal(err)
	}
	if db2.Table("t2") != nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	tab2 := db2.Table("t1")
	if tab2 == nil {
		t.Fatal("t1 lost in recovery")
	}
	if _, err := tab2.SecondaryIndex("i1"); !errors.Is(err, ErrNoIndex) {
		t.Fatal("dropped index resurrected by recovery")
	}
	rtx := db2.Begin()
	if _, _, err := getRow(tab2, rtx, at, 1); err != nil {
		t.Fatalf("row lost: %v", err)
	}
	db2.Abort(rtx, at)
}

// TestCreateTableColumnBound: a table of catalog.MaxCols columns with the
// longest names logs and replays (its DDL record is within the WAL's record
// bound); one more column is refused before anything is logged.
func TestCreateTableColumnBound(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cols := []tuple.Column{{Name: "id", Type: tuple.TypeInt64}}
	for len(cols) <= catalog.MaxCols {
		cols = append(cols, tuple.Column{Name: fmt.Sprintf("c%0*d", catalog.MaxNameLen-1, len(cols)), Type: tuple.TypeString})
	}
	logged := db.WAL().NextLSN()
	if _, _, err := db.CreateTableLogged(0, "wide", tuple.NewSchema(cols...), "id"); !errors.Is(err, catalog.ErrBadName) {
		t.Fatalf("a table of %d columns: err=%v, want ErrBadName", len(cols), err)
	}
	if db.WAL().NextLSN() != logged {
		t.Fatal("a refused CREATE TABLE logged records")
	}
	if _, _, err := db.CreateTableLogged(0, "wide", tuple.NewSchema(cols[:catalog.MaxCols]...), "id"); err != nil {
		t.Fatalf("a table of %d columns: %v", catalog.MaxCols, err)
	}
	ropts := DefaultOptions(data, walDev)
	ropts.Kind = KindSIAS
	ropts.Recover = true
	db2, err := Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Recover(0); err != nil {
		t.Fatal(err)
	}
	if tab := db2.Table("wide"); tab == nil || len(tab.Schema().Cols) != catalog.MaxCols {
		t.Fatal("the widest table did not replay")
	}
}

// TestStatsReportTables checks the per-table stats block: rows, index counts
// and lookup/insert counters must reflect activity.
func TestStatsReportTables(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTableLogged(0, "t", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if at, err = db.CreateIndexLogged(at, "t", "by_balance", "balance"); err != nil {
		t.Fatal(err)
	}
	idx, _ := tab.SecondaryIndex("by_balance")
	for i := int64(1); i <= 8; i++ {
		tx := db.Begin()
		at, err = tab.Insert(tx, at, tuple.Row{i, "u", i % 3})
		if err != nil {
			t.Fatal(err)
		}
		at, _ = db.Commit(tx, at)
	}
	tx := db.Begin()
	if _, _, err := pointRows(tab, tx, at, idx, 1); err != nil {
		t.Fatal(err)
	}
	db.Abort(tx, at)

	st := db.Stats()
	if len(st.Tables) != 1 {
		t.Fatalf("stats report %d tables, want 1", len(st.Tables))
	}
	ts := st.Tables[0]
	if ts.Name != "t" || ts.Rows != 8 || ts.Indexes != 1 {
		t.Fatalf("table stats %+v", ts)
	}
	if ts.IndexEntries != 8 || ts.IndexInserts != 8 {
		t.Fatalf("index entry stats %+v", ts)
	}
	if ts.IndexLookups != 1 || st.IndexLookups != 1 {
		t.Fatalf("lookup stats %+v (engine total %d)", ts, st.IndexLookups)
	}
	// The paper's quantities are core.Stats, table by table.
	cs := tab.SIAS().Stats()
	if ts.Appends != 8 || ts.Appends != cs.Appends || ts.ChainWalks == 0 || ts.ChainWalks != cs.ChainWalks ||
		ts.ChainHops != cs.ChainHops || ts.PagesSealed != cs.PagesSealed || ts.SealedTuples != cs.SealedTuples ||
		ts.GCPages != cs.GCPages || ts.GCRelocations != cs.GCRelocations || ts.GCDiscarded != cs.GCDiscarded {
		t.Fatalf("table stats %+v do not mirror core stats %+v", ts, cs)
	}
}

// TestCreateIndexBackfillsUnderWriters creates an index on a populated table
// while writers keep inserting rows and moving the indexed column. Every
// version must end up with exactly one entry: the backfill indexes what was
// there, the writers index what they append, and where the two overlap the
// set insert keeps one. Reads check the entries that resolve to a current
// row; the entry count, compared with the tree a crash recovery of the same
// log rebuilds from the heap, checks the rest. (Indexed values are drawn from
// a wide range on purpose: Tree.Delete gives up early on a key whose
// duplicates span several leaves, so under SI a low-cardinality index keeps
// entries of pruned versions — which readers skip — and the counts would
// differ for a reason that has nothing to do with the backfill.)
func TestCreateIndexBackfillsUnderWriters(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, applyDataPages)
			walDev := device.NewMem(page.Size, applyWALPages)
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
			const preload, workers = 2000, 4
			for lo := int64(0); lo < preload; lo += 100 {
				tx := f.Begin()
				for id := lo; id < lo+100; id++ {
					if err := f.Insert(tab, tx, tuple.Row{id, "pre", id * 7}); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.Commit(tx); err != nil {
					t.Fatal(err)
				}
			}

			// One operation per transaction, so a failed one leaves no version
			// behind: every version in the heap is committed and the rebuilt
			// tree is exactly the set the live one must hold.
			const opsEach, indexes = 900, 8
			var done atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					next := int64(preload + w*1_000_000)
					for n := 0; n < opsEach; n++ {
						tx := f.Begin()
						var err error
						if rng.Intn(2) == 0 {
							err = f.Insert(tab, tx, tuple.Row{next, "new", rng.Int63n(1 << 40)})
							next++
						} else {
							err = f.Update(tab, tx, rng.Int63n(preload), func(r tuple.Row) (tuple.Row, error) {
								r[2] = rng.Int63n(1 << 40)
								return r, nil
							})
						}
						if err != nil {
							f.Abort(tx)
							if !errors.Is(err, txn.ErrSerialization) && !errors.Is(err, txn.ErrLockTimeout) {
								t.Errorf("writer %d: %v", w, err)
							}
						} else if err := f.Commit(tx); err != nil {
							t.Errorf("writer %d commit: %v", w, err)
						}
						done.Add(1)
					}
				}(w)
			}
			// Several indexes, spread over the writers' run: each backfill is
			// another chance to catch a writer between its append and its
			// index insert.
			for i := int64(0); i < indexes; i++ {
				for done.Load() < (i+1)*workers*opsEach/(indexes+2) {
					runtime.Gosched()
				}
				if err := f.CreateIndex("accounts", fmt.Sprintf("by_balance_%d", i), "balance"); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			check := f.Begin()
			want := map[int64]int64{} // id -> balance
			if _, err := tab.Scan(check, 0, rowVisit(func(r tuple.Row) bool {
				want[r[0].(int64)] = r[2].(int64)
				return true
			})); err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < indexes; idx++ {
				seen := map[int64]int{}
				if err := f.RangeBySecondary(tab, check, idx, math.MinInt64, math.MaxInt64, func(key int64, r tuple.Row) bool {
					id := r[0].(int64)
					seen[id]++
					if want[id] != key {
						t.Errorf("index %d: row %d listed under balance %d, has %d", idx, id, key, want[id])
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for id := range want {
					if seen[id] != 1 {
						t.Errorf("index %d: row %d appears %d times in the range, want once", idx, id, seen[id])
					}
				}
			}
			f.Commit(check)

			rdb, _ := crashAndRecover(t, k, cloneMem(t, data), cloneMem(t, walDev))
			live, rebuilt := db.Stats().Tables[0].IndexEntries, rdb.Stats().Tables[0].IndexEntries
			if live != rebuilt || live < indexes*preload {
				t.Errorf("live indexes hold %d entries, the ones rebuilt from the heap %d", live, rebuilt)
			}
		})
	}
}

// TestCreateIndexRacesIndexLookup: one session loops lookups through index
// ix0 while another creates ix1…ix7 on the same table. The table's index
// metadata is published copy-on-write, so the reader takes no lock and still
// never sees a slice the DDL is appending to; under -race the detector is
// the assertion (it fired within milliseconds when the metadata was five
// parallel slices appended in place).
func TestCreateIndexRacesIndexLookup(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			opts := DefaultOptions(device.NewMem(page.Size, 1<<14), device.NewMem(page.Size, 1<<12))
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
			tx := f.Begin()
			for id := int64(0); id < 64; id++ {
				if err := f.Insert(tab, tx, tuple.Row{id, "a", id % 4}); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Commit(tx); err != nil {
				t.Fatal(err)
			}
			if err := f.CreateIndex("accounts", "ix0", "balance"); err != nil {
				t.Fatal(err)
			}
			ix0, err := tab.SecondaryIndex("ix0")
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var lookups atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rtx := f.Begin()
				defer f.Commit(rtx)
				for {
					select {
					case <-stop:
						return
					default:
					}
					rows, _, err := pointRows(tab, rtx, 0, ix0, 1)
					if err != nil || len(rows) != 16 {
						t.Errorf("lookup during CREATE INDEX: %d rows, %v; want 16", len(rows), err)
						return
					}
					lookups.Add(1)
				}
			}()
			for i := 1; i <= 7; i++ {
				// Let the reader in between two DDLs, so each append has a
				// lookup to race with.
				for n := lookups.Load(); lookups.Load() == n && !t.Failed(); {
					runtime.Gosched()
				}
				if err := f.CreateIndex("accounts", fmt.Sprintf("ix%d", i), "balance"); err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if got := len(tab.Secondaries()); got != 8 {
				t.Errorf("%d live indexes, want 8", got)
			}
		})
	}
}
