package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// TestDifferentialEnginesAgree applies the same randomized, committed
// operation stream to the SI engine, the SIAS engine and a plain map model,
// then verifies all three report identical visible contents — point lookups
// and full scans. This is the strongest equivalence check in the suite: any
// divergence in visibility, chain maintenance, index upkeep, vacuum or GC
// shows up as a mismatch.
func TestDifferentialEnginesAgree(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dbSI, tabSI := openTestDB(t, KindSI)
			dbSIAS, tabSIAS := openTestDB(t, KindSIAS)
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

			const keyspace = 60
			for step := 0; step < 800; step++ {
				key := int64(rng.Intn(keyspace))
				switch r := rng.Intn(100); {
				case r < 35: // insert if absent
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
				case r < 70: // update if present
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
				case r < 85: // delete if present
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
				case r < 92: // aborted mutation: must leave no trace
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
