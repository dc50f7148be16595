package engine

import (
	"fmt"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

func openPolicyDB(t *testing.T, pol FlushPolicy) (*DB, *Table, *device.Mem) {
	t.Helper()
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	opts.Policy = pol
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "t", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	return db, tab, data
}

// TestPolicyT1SealsSparsePages verifies Section 5.2's t1 behaviour: the
// background-writer threshold persists sparsely filled append pages, costing
// extra writes and space.
func TestPolicyT1SealsSparsePages(t *testing.T) {
	db, tab, data := openPolicyDB(t, PolicyT1)
	at := simclock.Time(0)
	// One small insert per bgwriter interval: every page is sealed sparse.
	for i := int64(0); i < 10; i++ {
		tx := db.Begin()
		var err error
		at, err = tab.Insert(tx, at, tuple.Row{i, "x", i})
		if err != nil {
			t.Fatal(err)
		}
		at, _ = db.Commit(tx, at)
		at = at.Add(250 * simclock.Millisecond) // pass a bgwriter tick
		at, _ = db.Tick(at)
	}
	st := tab.SIAS().Stats()
	if st.PagesSealed < 8 {
		t.Errorf("sealed %d pages, want ~10 sparse seals under t1", st.PagesSealed)
	}
	if fill := st.AvgFill(); fill > 2 {
		t.Errorf("avg fill %f tuples/page: t1 should seal sparse pages", fill)
	}
	if data.Stats().Writes < 8 {
		t.Errorf("device writes = %d, want ~1 per bgwriter tick", data.Stats().Writes)
	}
}

// TestPolicyT2FillsPagesDensely verifies t2: with checkpoint-paced flushing
// the same workload packs tuples densely and writes almost nothing.
func TestPolicyT2FillsPagesDensely(t *testing.T) {
	db, tab, data := openPolicyDB(t, PolicyT2)
	at := simclock.Time(0)
	for i := int64(0); i < 10; i++ {
		tx := db.Begin()
		var err error
		at, err = tab.Insert(tx, at, tuple.Row{i, "x", i})
		if err != nil {
			t.Fatal(err)
		}
		at, _ = db.Commit(tx, at)
		at = at.Add(250 * simclock.Millisecond)
		at, _ = db.Tick(at) // no bgwriter under t2; checkpoint at 30 s only
	}
	st := tab.SIAS().Stats()
	if st.PagesSealed != 0 {
		t.Errorf("sealed %d pages before any checkpoint, want 0 under t2", st.PagesSealed)
	}
	if data.Stats().Writes != 0 {
		t.Errorf("device writes = %d before checkpoint, want 0", data.Stats().Writes)
	}
	// Cross a checkpoint: the single open page is sealed once, full of all
	// 10 tuples.
	at = at.Add(31 * simclock.Second)
	if _, err := db.Tick(at); err != nil {
		t.Fatal(err)
	}
	st = tab.SIAS().Stats()
	if st.PagesSealed != 1 || st.SealedTuples != 10 {
		t.Errorf("after checkpoint: sealed=%d tuples=%d, want 1 page with 10 tuples", st.PagesSealed, st.SealedTuples)
	}
}

// TestWriteVolumeT1VersusT2 compares total write volume under identical
// workloads — the per-policy ordering behind Table 1 (SI > t1 > t2).
func TestWriteVolumeT1VersusT2(t *testing.T) {
	volumes := map[FlushPolicy]int64{}
	for _, pol := range []FlushPolicy{PolicyT1, PolicyT2} {
		db, tab, data := openPolicyDB(t, pol)
		at := simclock.Time(0)
		for i := int64(0); i < 200; i++ {
			tx := db.Begin()
			var err error
			at, err = tab.Insert(tx, at, tuple.Row{i, fmt.Sprintf("row-%d", i), i})
			if err != nil {
				t.Fatal(err)
			}
			at, _ = db.Commit(tx, at)
			at = at.Add(40 * simclock.Millisecond)
			at, _ = db.Tick(at)
		}
		at, _ = db.Checkpoint(at)
		volumes[pol] = data.Stats().Writes
	}
	if volumes[PolicyT1] <= volumes[PolicyT2] {
		t.Errorf("t1 wrote %d pages <= t2 %d pages; t1 must write more", volumes[PolicyT1], volumes[PolicyT2])
	}
}

// TestCheckpointIntervalDrivesTick verifies checkpoints fire from Tick at
// the 30 s checkpoint cadence, and not before it, for both engines.
func TestCheckpointIntervalDrivesTick(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, _ := Open(opts)
			tab, at, _ := db.CreateTable(0, "t", testSchema(), "id")
			tx := db.Begin()
			at, _ = tab.Insert(tx, at, tuple.Row{int64(1), "x", int64(1)})
			at, _ = db.Commit(tx, at)
			start := at
			if _, err := db.Tick(start.Add(checkpointInterval - simclock.Second)); err != nil {
				t.Fatal(err)
			}
			if data.Stats().Writes != 0 {
				t.Fatal("nothing should be flushed before the checkpoint interval")
			}
			if _, err := db.Tick(start.Add(checkpointInterval + simclock.Second)); err != nil {
				t.Fatal(err)
			}
			if data.Stats().Writes == 0 {
				t.Error("checkpoint did not flush data pages")
			}
		})
	}
}
