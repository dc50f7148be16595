package wal

import (
	"bytes"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
)

func newDev() *device.Mem { return device.NewMem(page.Size, 1024) }

func TestAppendFlushScanRoundtrip(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	recs := []Record{
		{Type: RecHeapInsert, Tx: 1, Rel: 2, TID: page.TID{Block: 3, Slot: 4}, Data: []byte("hello")},
		{Type: RecCommit, Tx: 1},
		{Type: RecHeapOverwrite, Tx: 2, Rel: 2, TID: page.TID{Block: 0, Slot: 0}, Data: bytes.Repeat([]byte{9}, 300)},
		{Type: RecAbort, Tx: 2},
		{Type: RecAllocExtent, Rel: 5, Aux: 0xDEADBEEF},
	}
	var last LSN
	for i := range recs {
		last = w.Append(&recs[i])
	}
	if _, err := w.Flush(0, last); err != nil {
		t.Fatal(err)
	}

	var got []Record
	_, err := Scan(dev, func(_ LSN, rec Record) error {
		rec.Data = bytes.Clone(rec.Data) // valid only until fn returns
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		g := got[i]
		if g.Type != want.Type || g.Tx != want.Tx || g.Rel != want.Rel || g.TID != want.TID || g.Aux != want.Aux || !bytes.Equal(g.Data, want.Data) {
			t.Errorf("record %d = %+v, want %+v", i, g, want)
		}
	}
}

func TestFlushIsIdempotentBelowDurable(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	lsn := w.Append(&Record{Type: RecCommit, Tx: 1})
	if _, err := w.Flush(0, lsn); err != nil {
		t.Fatal(err)
	}
	writes := dev.Stats().Writes
	if _, err := w.Flush(0, lsn); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Writes != writes {
		t.Error("second flush of durable LSN should write nothing")
	}
}

func TestGroupCommitBatches(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	for i := 0; i < 50; i++ {
		w.Append(&Record{Type: RecCommit, Tx: txn.ID(i + 1)})
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// 50 commit records fit one page: exactly one device write.
	if got := dev.Stats().Writes; got != 1 {
		t.Errorf("page writes = %d, want 1 (group commit)", got)
	}
}

func TestTailPageRewrite(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	w.Append(&Record{Type: RecCommit, Tx: 1})
	w.Flush(0, w.NextLSN())
	w.Append(&Record{Type: RecCommit, Tx: 2})
	w.Flush(0, w.NextLSN())
	// Both flushes wrote page 0 (tail rewrite).
	if got := dev.Stats().Writes; got != 2 {
		t.Errorf("page writes = %d, want 2", got)
	}
	// Both records must survive.
	n := 0
	_, _ = Scan(dev, func(_ LSN, rec Record) error { n++; return nil })
	if n != 2 {
		t.Errorf("scanned %d records, want 2", n)
	}
}

func TestMultiPageSpill(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	// Records large enough to span several pages.
	data := bytes.Repeat([]byte{7}, 3000)
	for i := 0; i < 10; i++ {
		w.Append(&Record{Type: RecHeapInsert, Tx: txn.ID(i + 1), Data: data})
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err := Scan(dev, func(_ LSN, rec Record) error {
		if !bytes.Equal(rec.Data, data) {
			t.Error("payload corrupted across page boundary")
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("scanned %d, want 10", n)
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	w.Append(&Record{Type: RecCommit, Tx: 1})
	w.Flush(0, w.NextLSN())
	// Unflushed record: simulates a crash before flush.
	w.Append(&Record{Type: RecCommit, Tx: 2})

	n := 0
	_, _ = Scan(dev, func(_ LSN, rec Record) error { n++; return nil })
	if n != 1 {
		t.Errorf("scanned %d records, want 1 (tail lost)", n)
	}
}

// writeLog writes a log of n 100-byte heap records to dev.
func writeLog(t testing.TB, dev device.BlockDevice, n int) {
	t.Helper()
	w := NewWriter(dev)
	rec := &Record{Type: RecHeapInsert, Tx: 1, Rel: 2, Data: make([]byte, 100)}
	for i := 0; i < n; i++ {
		w.Append(rec)
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
}

// scanCount scans dev and returns how many records it holds.
func scanCount(t testing.TB, dev device.BlockDevice) int {
	n := 0
	if _, err := Scan(dev, func(LSN, Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScanAllocBudget pins Scan to one reused buffer: a record costs no
// allocation of its own (its Data aliases the buffer), and a log many 32-page
// runs long costs the one allocation a log inside one run does, on a device
// with the range read path (File) and on one read page by page (Mem).
func TestScanAllocBudget(t *testing.T) {
	devs := map[string]func() device.BlockDevice{
		"Mem":  func() device.BlockDevice { return device.NewMem(page.Size, 1<<16) },
		"File": func() device.BlockDevice { return newFileDev(t, page.Size, 2048) },
	}
	for name, newDev := range devs {
		t.Run(name, func(t *testing.T) {
			allocs := func(records int) (float64, int64) {
				dev := newDev()
				writeLog(t, dev, records)
				return testing.AllocsPerRun(5, func() { scanCount(t, dev) }), int64(dev.Stats().BytesWritten)
			}
			small, smallBytes := allocs(100)
			large, largeBytes := allocs(20000)
			if smallBytes >= scanRun*page.Size || largeBytes < 8*scanRun*page.Size {
				t.Fatalf("logs of %d and %d bytes: want one inside a run and one at least 8 runs long", smallBytes, largeBytes)
			}
			if large != small || large > 1 {
				t.Errorf("a scan of %d runs allocates %.0f times, of one run %.0f: want once each, the scan buffer", largeBytes/page.Size/scanRun+1, large, small)
			}
		})
	}
}

// TestScanBufferReuseKeepsRecords scans a log whose records straddle run
// boundaries, some longer than a page, checking every record's bytes while
// fn holds it: the remainder a run moves to the front of the reused buffer
// must not overwrite a record still being decoded.
func TestScanBufferReuseKeepsRecords(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	var sizes []int
	for i := 0; w.NextLSN() < 4*scanRun*page.Size; i++ {
		size := 100 + i*37%900
		if i%50 == 49 {
			size = 3*page.Size + i // longer than a page: the buffer grows
		}
		sizes = append(sizes, size)
		w.Append(&Record{Type: RecHeapInsert, Tx: txn.ID(i + 1), Data: bytes.Repeat([]byte{byte(i)}, size)})
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := Scan(dev, func(_ LSN, rec Record) error {
		if int(rec.Tx) != n+1 || !bytes.Equal(rec.Data, bytes.Repeat([]byte{byte(n)}, sizes[n])) {
			t.Fatalf("record %d: tx %d with %d bytes, want tx %d with %d bytes of %d", n, rec.Tx, len(rec.Data), n+1, sizes[n], byte(n))
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(sizes) {
		t.Fatalf("scanned %d records, want %d", n, len(sizes))
	}
}

// TestAppendAllocBudget pins a warm Append at 0 allocations: the record is
// framed straight into the pending tail, whose array a flush trims in place
// and the next appends refill. Append keeps nothing of the record, so the
// bytes it buffers are exactly EncodeRecord's, and rewriting Data after the
// call (a page slot the caller reuses) does not reach the log.
func TestAppendAllocBudget(t *testing.T) {
	w := NewWriter(newDev())
	data := bytes.Repeat([]byte{7}, 256)
	heap := &Record{Type: RecHeapInsert, Tx: 5, Rel: 2, TID: page.TID{Block: 9, Slot: 3}, Aux: 1, Data: data}
	commit := &Record{Type: RecCommit, Tx: 5}
	commitOne := func() {
		w.Append(heap)
		if _, err := w.Flush(0, w.Append(commit)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm pending's array
		commitOne()
	}
	// Flush allocates nothing (TestFlushAllocatesNothing), so this is the
	// two appends' cost.
	if n := testing.AllocsPerRun(1000, commitOne); n != 0 {
		t.Errorf("two warm Appends and a Flush allocate %v times, want 0", n)
	}

	w = NewWriter(newDev())
	want := append(EncodeRecord(heap), EncodeRecord(commit)...)
	w.Append(heap)
	w.Append(commit)
	data[0] = 8 // the caller reuses its buffer
	if got := w.pending[:w.nextLSN]; !bytes.Equal(got, want) {
		t.Errorf("Append buffered %x, want EncodeRecord's %x", got, want)
	}
}

func TestDurableTracking(t *testing.T) {
	w := NewWriter(newDev())
	if w.Durable() != 0 {
		t.Error("fresh writer durable != 0")
	}
	lsn := w.Append(&Record{Type: RecCommit, Tx: 1})
	if w.Durable() >= lsn {
		t.Error("append must not advance durable")
	}
	w.Flush(0, lsn)
	if w.Durable() != w.NextLSN() {
		t.Error("flush should advance durable to nextLSN")
	}
}
