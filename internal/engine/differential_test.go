package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// TestDifferentialEnginesAgree applies the same randomized, committed
// operation stream — inserts, updates of the balance and of the primary key,
// deletes, aborted writes, maintenance — to the SI engine, the SIAS engine
// and a plain map model. Along the way it compares key-range reads and
// balance-index range reads of both engines with the model, and at the end
// point lookups and full scans. This is the strongest equivalence check in
// the suite: any divergence in visibility, chain maintenance, index upkeep
// (stale <key, VID> entries included), vacuum or GC shows up as a mismatch.
func TestDifferentialEnginesAgree(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dbSI, tabSI := openTestDB(t, KindSI)
			dbSIAS, tabSIAS := openTestDB(t, KindSIAS)
			byBalance := func(v tuple.View) (int64, bool) { return v.Int64(2), true }
			var byBal int
			for _, tab := range []*Table{tabSI, tabSIAS} {
				var err error
				if byBal, _, err = tab.AddSecondaryIndex(0, "by_balance", byBalance); err != nil {
					t.Fatal(err)
				}
			}
			model := map[int64]int64{} // key -> balance
			rng := rand.New(rand.NewSource(seed))
			atSI := simclock.Time(0)
			atSIAS := simclock.Time(0)

			apply := func(op func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error)) {
				var err1, err2 error
				atSI, err1 = op(dbSI, tabSI, atSI)
				atSIAS, err2 = op(dbSIAS, tabSIAS, atSIAS)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("engines diverged: SI err=%v, SIAS err=%v", err1, err2)
				}
			}

			// reads runs read on both engines under a fresh snapshot each and
			// requires both to return want, in order when ordered.
			reads := func(what string, want [][2]int64, ordered bool, read func(tab *Table, tx *txn.Tx, at simclock.Time, got *[][2]int64) (simclock.Time, error)) {
				t.Helper()
				for _, e := range []struct {
					name string
					db   *DB
					tab  *Table
					at   *simclock.Time
				}{{"SI", dbSI, tabSI, &atSI}, {"SIAS", dbSIAS, tabSIAS, &atSIAS}} {
					var got [][2]int64
					tx := e.db.Begin()
					at, err := read(e.tab, tx, *e.at, &got)
					if err != nil {
						t.Fatalf("%s %s: %v", e.name, what, err)
					}
					*e.at, _ = e.db.Commit(tx, at)
					if !ordered {
						slices.SortFunc(got, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s: %v, model %v", e.name, what, got, want)
					}
				}
			}

			const keyspace = 60
			for step := 0; step < 800; step++ {
				key := int64(rng.Intn(keyspace))
				switch r := rng.Intn(100); {
				case r < 30: // insert if absent
					if _, exists := model[key]; exists {
						continue
					}
					val := rng.Int63n(1000)
					apply(func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error) {
						tx := db.Begin()
						at, err := tab.Insert(tx, at, tuple.Row{key, "r", val})
						if err != nil {
							db.Abort(tx, at)
							return at, err
						}
						return db.Commit(tx, at)
					})
					model[key] = val
				case r < 55: // update if present
					if _, exists := model[key]; !exists {
						continue
					}
					delta := rng.Int63n(100)
					apply(func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error) {
						tx := db.Begin()
						at, err := tab.Update(tx, at, key, rowUpdate(func(row tuple.Row) (tuple.Row, error) {
							row[2] = row[2].(int64) + delta
							return row, nil
						}))
						if err != nil {
							db.Abort(tx, at)
							return at, err
						}
						return db.Commit(tx, at)
					})
					model[key] += delta
				case r < 63: // move to an absent key if present
					to := int64(rng.Intn(keyspace))
					if _, exists := model[key]; !exists {
						continue
					}
					if _, taken := model[to]; taken {
						continue
					}
					apply(func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error) {
						tx := db.Begin()
						at, err := tab.Update(tx, at, key, rowUpdate(func(row tuple.Row) (tuple.Row, error) {
							row[0] = to
							return row, nil
						}))
						if err != nil {
							db.Abort(tx, at)
							return at, err
						}
						return db.Commit(tx, at)
					})
					model[to] = model[key]
					delete(model, key)
				case r < 75: // delete if present
					if _, exists := model[key]; !exists {
						continue
					}
					apply(func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error) {
						tx := db.Begin()
						at, err := tab.Delete(tx, at, key)
						if err != nil {
							db.Abort(tx, at)
							return at, err
						}
						return db.Commit(tx, at)
					})
					delete(model, key)
				case r < 80: // aborted mutation: must leave no trace
					apply(func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error) {
						tx := db.Begin()
						var err error
						if _, exists := model[key]; exists {
							at, err = tab.Update(tx, at, key, rowUpdate(func(row tuple.Row) (tuple.Row, error) {
								row[2] = int64(-999)
								return row, nil
							}))
						} else {
							at, err = tab.Insert(tx, at, tuple.Row{key, "ghost", int64(-999)})
						}
						_ = err
						return db.Abort(tx, at)
					})
				case r < 87: // key window
					lo := int64(rng.Intn(keyspace))
					hi := lo + int64(rng.Intn(keyspace/4))
					var want [][2]int64
					for k := lo; k <= hi; k++ {
						if bal, ok := model[k]; ok {
							want = append(want, [2]int64{k, bal})
						}
					}
					reads(fmt.Sprintf("RangeByKey(%d, %d)", lo, hi), want, true, func(tab *Table, tx *txn.Tx, at simclock.Time, got *[][2]int64) (simclock.Time, error) {
						return tab.RangeByKey(tx, at, lo, hi, func(v tuple.View) bool {
							*got = append(*got, [2]int64{v.Int64(0), v.Int64(2)})
							return true
						})
					})
				case r < 94: // balance window through the secondary index
					lo := rng.Int63n(1200)
					hi := lo + rng.Int63n(300)
					var want [][2]int64
					for k, bal := range model {
						if lo <= bal && bal <= hi {
							want = append(want, [2]int64{bal, k})
						}
					}
					slices.SortFunc(want, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
					reads(fmt.Sprintf("RangeBySecondary(%d, %d)", lo, hi), want, false, func(tab *Table, tx *txn.Tx, at simclock.Time, got *[][2]int64) (simclock.Time, error) {
						return tab.RangeBySecondary(tx, at, byBal, lo, hi, func(bal int64, v tuple.View) bool {
							*got = append(*got, [2]int64{bal, v.Int64(0)})
							return true
						})
					})
				default: // maintenance
					apply(func(db *DB, tab *Table, at simclock.Time) (simclock.Time, error) {
						return db.RunMaintenance(at)
					})
				}
			}

			// Verify point lookups against the model.
			txSI := dbSI.Begin()
			txSIAS := dbSIAS.Begin()
			for key := int64(0); key < keyspace; key++ {
				want, exists := model[key]
				rowSI, a1, err1 := getRow(tabSI, txSI, atSI, key)
				atSI = a1
				rowSIAS, a2, err2 := getRow(tabSIAS, txSIAS, atSIAS, key)
				atSIAS = a2
				if exists {
					if err1 != nil || err2 != nil {
						t.Fatalf("key %d: SI err=%v SIAS err=%v, want value %d", key, err1, err2, want)
					}
					if rowSI[2] != want || rowSIAS[2] != want {
						t.Fatalf("key %d: SI=%v SIAS=%v, want %d", key, rowSI[2], rowSIAS[2], want)
					}
				} else {
					if !errors.Is(err1, ErrNotFound) || !errors.Is(err2, ErrNotFound) {
						t.Fatalf("key %d should be absent: SI err=%v SIAS err=%v", key, err1, err2)
					}
				}
			}
			// Verify scans agree with the model.
			for name, pair := range map[string]struct {
				db  *DB
				tab *Table
				tx  *struct{}
			}{"si": {dbSI, tabSI, nil}, "sias": {dbSIAS, tabSIAS, nil}} {
				got := map[int64]int64{}
				tx := pair.db.Begin()
				_, err := pair.tab.Scan(tx, 0, rowVisit(func(r tuple.Row) bool {
					got[r[0].(int64)] = r[2].(int64)
					return true
				}))
				if err != nil {
					t.Fatal(err)
				}
				pair.db.Commit(tx, 0)
				if len(got) != len(model) {
					t.Fatalf("%s scan: %d rows, model has %d", name, len(got), len(model))
				}
				for k, v := range model {
					if got[k] != v {
						t.Fatalf("%s scan: key %d = %d, want %d", name, k, got[k], v)
					}
				}
			}
			dbSI.Commit(txSI, atSI)
			dbSIAS.Commit(txSIAS, atSIAS)
		})
	}
}

// TestDifferentialCrashSimple: deterministic op stream, crash, recover,
// compare both engines against the model.
func TestDifferentialCrashSimple(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			if servedOnly(t, kind) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = kind
			db, _ := Open(opts)
			tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")

			rng := rand.New(rand.NewSource(7))
			model := map[int64]int64{}
			for step := 0; step < 400; step++ {
				key := int64(rng.Intn(50))
				val := rng.Int63n(1000)
				tx := db.Begin()
				var err error
				if _, exists := model[key]; !exists {
					at, err = tab.Insert(tx, at, tuple.Row{key, "x", val})
					model[key] = val
				} else if rng.Intn(4) == 0 {
					at, err = tab.Delete(tx, at, key)
					delete(model, key)
				} else {
					at, err = tab.Update(tx, at, key, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
						r[2] = val
						return r, nil
					}))
					model[key] = val
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				at, _ = db.Commit(tx, at)
				if step%100 == 50 {
					at, _ = db.RunMaintenance(at)
				}
				if step == 200 {
					at, _ = db.Checkpoint(at)
				}
			}
			db.Pool().InvalidateAll() // crash

			db2, tab2 := crashAndRecover(t, kind, data, walDev)
			tx := db2.Begin()
			at2 := simclock.Time(0)
			for key := int64(0); key < 50; key++ {
				want, exists := model[key]
				row, a, err := getRow(tab2, tx, at2, key)
				at2 = a
				if exists {
					if err != nil || row[2] != want {
						t.Errorf("key %d after crash: %v %v, want %d", key, row, err, want)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Errorf("key %d should be gone after crash: %v", key, err)
				}
			}
			db2.Commit(tx, at2)
		})
	}
}
