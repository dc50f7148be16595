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

// newWriterAt is NewWriterAt for a test: a failure to zero the window fails t.
func newWriterAt(t testing.TB, dev device.BlockDevice, start LSN) *Writer {
	t.Helper()
	w, err := NewWriterAt(dev, start)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWriterAtAppendsAfterOldLog(t *testing.T) {
	dev := newDev()
	w1 := NewWriter(dev)
	w1.Append(&Record{Type: RecCommit, Tx: 1})
	w1.Flush(0, w1.NextLSN())

	// New generation starting at the next page boundary.
	w2 := newWriterAt(t, dev, LSN(page.Size))
	w2.Append(&Record{Type: RecCommit, Tx: 2})
	if _, err := w2.Flush(0, w2.NextLSN()); err != nil {
		t.Fatal(err)
	}
	var txs []txn.ID
	_, _ = Scan(dev, func(_ LSN, rec Record) error {
		txs = append(txs, rec.Tx)
		return nil
	})
	if len(txs) != 2 || txs[0] != 1 || txs[1] != 2 {
		t.Errorf("scanned txs = %v, want [1 2]", txs)
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

// TestScanAllocsDoNotGrowWithRecords pins Scan's allocation budget: a record
// costs no allocation of its own (its Data aliases the scan buffer), so ten
// times the records may cost only the extra 32-page runs they span.
func TestScanAllocsDoNotGrowWithRecords(t *testing.T) {
	devs := map[string]func() device.BlockDevice{
		"Mem":  func() device.BlockDevice { return device.NewMem(page.Size, 1<<16) },
		"File": func() device.BlockDevice { return newFileDev(t, page.Size, 1024) },
	}
	for name, newDev := range devs {
		t.Run(name, func(t *testing.T) {
			allocs := func(records int) (float64, int64) {
				dev := newDev()
				writeLog(t, dev, records)
				return testing.AllocsPerRun(5, func() { scanCount(t, dev) }), int64(dev.Stats().BytesWritten)
			}
			small, _ := allocs(1000)
			large, written := allocs(10000)
			runs := written/page.Size/scanRun + 1
			if large-small > float64(runs) {
				t.Errorf("a scan of 10,000 records allocates %.0f times, of 1,000 %.0f: more than the %d runs the larger log spans", large, small, runs)
			}
		})
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
