package engine

import (
	"testing"

	"sias/internal/simclock"
	"sias/internal/tuple"
)

func TestRangeByKeyBothEngines(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at := simclock.Time(0)
			for i := int64(0); i < 100; i++ {
				at, _ = tab.Insert(tx, at, tuple.Row{i, "r", i * 2})
			}
			at, _ = db.Commit(tx, at)
			// Delete a band, update another.
			mod := db.Begin()
			for i := int64(40); i < 50; i++ {
				at, _ = tab.Delete(mod, at, i)
			}
			for i := int64(50); i < 60; i++ {
				at, _ = tab.Update(mod, at, i, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = r[2].(int64) + 1
					return r, nil
				}))
			}
			at, _ = db.Commit(mod, at)

			r := db.Begin()
			var keys []int64
			var sum int64
			at, err := tab.RangeByKey(r, at, 30, 69, rowVisit(func(row tuple.Row) bool {
				keys = append(keys, row[0].(int64))
				sum += row[2].(int64)
				return true
			}))
			if err != nil {
				t.Fatal(err)
			}
			// 30..39 (10) + 50..59 (10) + 60..69 (10): 40..49 deleted.
			if len(keys) != 30 {
				t.Fatalf("range saw %d keys: %v", len(keys), keys)
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					t.Fatalf("range out of order: %v", keys)
				}
			}
			var want int64
			for i := int64(30); i < 40; i++ {
				want += i * 2
			}
			for i := int64(50); i < 60; i++ {
				want += i*2 + 1
			}
			for i := int64(60); i < 70; i++ {
				want += i * 2
			}
			if sum != want {
				t.Errorf("range sum = %d, want %d", sum, want)
			}
			db.Commit(r, at)
		})
	}
}

func TestRangeByKeySnapshot(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at := simclock.Time(0)
			for i := int64(0); i < 10; i++ {
				at, _ = tab.Insert(tx, at, tuple.Row{i, "r", int64(0)})
			}
			at, _ = db.Commit(tx, at)
			reader := db.Begin()
			w := db.Begin()
			for i := int64(0); i < 10; i++ {
				at, _ = tab.Update(w, at, i, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = int64(7)
					return r, nil
				}))
			}
			at, _ = db.Commit(w, at)
			var sum int64
			at, err := tab.RangeByKey(reader, at, 0, 9, rowVisit(func(r tuple.Row) bool {
				sum += r[2].(int64)
				return true
			}))
			if err != nil || sum != 0 {
				t.Errorf("snapshot range sum = %d (%v), want 0", sum, err)
			}
			db.Commit(reader, at)
		})
	}
}

func TestRangeByKeyEarlyStop(t *testing.T) {
	db, tab := openTestDB(t, KindSIAS)
	tx := db.Begin()
	at := simclock.Time(0)
	for i := int64(0); i < 20; i++ {
		at, _ = tab.Insert(tx, at, tuple.Row{i, "r", i})
	}
	at, _ = db.Commit(tx, at)
	r := db.Begin()
	n := 0
	tab.RangeByKey(r, at, 0, 19, rowVisit(func(tuple.Row) bool { n++; return n < 5 }))
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
	db.Commit(r, at)
}

func TestParallelScanEngineLevel(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			db, tab := openTestDB(t, k)
			tx := db.Begin()
			at := simclock.Time(0)
			for i := int64(0); i < 200; i++ {
				at, _ = tab.Insert(tx, at, tuple.Row{i, "r", i})
			}
			at, _ = db.Commit(tx, at)
			r := db.Begin()
			var mu chan int64 = make(chan int64, 256)
			_, err := tab.ParallelScan(r, at, 4, rowVisitAll(func(row tuple.Row) {
				mu <- row[0].(int64)
			}))
			if err != nil {
				t.Fatal(err)
			}
			close(mu)
			seen := map[int64]bool{}
			for k := range mu {
				seen[k] = true
			}
			if len(seen) != 200 {
				t.Errorf("parallel scan saw %d distinct keys, want 200", len(seen))
			}
			db.Commit(r, at)
		})
	}
}
