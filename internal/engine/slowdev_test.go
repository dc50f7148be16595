package engine

import (
	"strings"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// TestSlowDeviceColdScan is the slow-device smoke: a cold full-table scan
// with the pool sized at 1/4 of the dataset, over a device whose reads cost
// real wall-clock time. The readahead pipeline must keep several reads in
// flight — the scan has to finish far sooner than the serial
// pages-times-latency bound — and sias_pool_io_pending must drain to zero.
func TestSlowDeviceColdScan(t *testing.T) {
	data := device.NewWrap(device.NewMem(page.Size, 1<<16))
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	opts.Kind = KindSIAS
	opts.ScanReadahead = 32
	opts.PoolFrames = 128 // ~1/4 of the ~500-page dataset built below

	const rows = 1000
	val := strings.Repeat("x", 3500) // ~2 rows per 8K page

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "items", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	at := simclock.Time(0)
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		a, err := tab.Insert(tx, at, tuple.Row{int64(i), val, int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		at, err = db.Commit(tx, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Make the pool cold and the device slow. Roughly 500 data pages were
	// written; size the pool at a quarter of that.
	if at, err = db.Checkpoint(at); err != nil {
		t.Fatal(err)
	}
	db.Pool().InvalidateAll()
	if dirty := db.Pool().DirtyCount(); dirty != 0 {
		t.Fatalf("dirty frames after checkpoint+invalidate: %d", dirty)
	}
	data.ReadDelay = 300 * time.Microsecond

	tx := db.Begin()
	start := time.Now()
	seen := 0
	if _, err := tab.Scan(tx, at, rowVisit(func(tuple.Row) bool { seen++; return true })); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if _, err := db.Commit(tx, at); err != nil {
		t.Fatal(err)
	}
	if seen != rows {
		t.Fatalf("cold scan saw %d rows, want %d", seen, rows)
	}

	db.Pool().DrainPrefetch()
	st := db.Stats()
	if st.Pool.PrefetchIssued == 0 {
		t.Fatal("cold scan issued no prefetches")
	}
	if st.Pool.IOPending != 0 {
		t.Fatalf("io pending = %d after drain, want 0", st.Pool.IOPending)
	}

	// Serial bound: every cold page paid for one at a time. With ~500 data
	// pages at 300µs each that is >=150ms; the pipeline with 8 read slots
	// and 32-page coalescing should beat half of it even under -race. Keep
	// the bound loose — this guards against reverting to a serial miss
	// path, not against scheduler noise.
	serial := time.Duration(st.Pool.Misses+st.Pool.PrefetchIssued) * 300 * time.Microsecond
	if elapsed > serial/2 {
		t.Fatalf("cold scan took %v, serial bound %v: readahead pipeline is not overlapping reads", elapsed, serial)
	}
	t.Logf("cold scan: %d rows in %v (serial bound %v), %d prefetched, %d coalesced, %d misses",
		rows, elapsed, serial, st.Pool.PrefetchIssued, st.Pool.PrefetchCoalesced, st.Pool.Misses)

	if _, err := db.Close(at); err != nil {
		t.Fatal(err)
	}
}
