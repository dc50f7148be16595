package engine

import (
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// TestVMapResidencyOption verifies that bounding the resident VIDmap bucket
// set (the paper's swap-to-disk case, §4.1.3) charges residency misses and
// slows lookups in virtual time without changing results.
func TestVMapResidencyOption(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	opts.VMapResidentBuckets = 1 // thrash between buckets
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTable(0, "t", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	// Insert across two VIDmap buckets (bucket capacity 1024).
	for i := int64(0); i < 1500; i++ {
		at, err = tab.Insert(tx, at, tuple.Row{i, "x", i})
		if err != nil {
			t.Fatal(err)
		}
	}
	at, _ = db.Commit(tx, at)

	// Alternate lookups between the buckets: every access misses.
	r := db.Begin()
	before := at
	for i := 0; i < 20; i++ {
		key := int64(1)
		if i%2 == 1 {
			key = 1400
		}
		if _, a, err := getRow(tab, r, at, key); err != nil {
			t.Fatal(err)
		} else {
			at = a
		}
	}
	db.Commit(r, at)
	st := tab.SIAS().Stats()
	if st.VMapMisses == 0 {
		t.Error("expected VIDmap residency misses with 1 resident bucket")
	}
	if at.Sub(before) < 20*100*simclock.Microsecond/2 {
		t.Errorf("miss penalty not charged: %v elapsed", at.Sub(before))
	}
}
