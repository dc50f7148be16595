package wal

import (
	"testing"

	"sias/internal/device"
	"sias/internal/flash"
	"sias/internal/page"
)

func BenchmarkAppend(b *testing.B) {
	w := NewWriter(device.NewMem(page.Size, 1<<18))
	rec := &Record{Type: RecHeapInsert, Tx: 1, Rel: 2, Data: make([]byte, 150)}
	b.SetBytes(int64(recHeaderSize + 150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(rec)
	}
}

func BenchmarkAppendFlushCommit(b *testing.B) {
	// The group-commit path: one insert record + commit record + flush.
	w := NewWriter(device.NewMem(page.Size, 1<<20))
	ins := &Record{Type: RecHeapInsert, Tx: 1, Rel: 2, Data: make([]byte, 150)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(ins)
		lsn := w.Append(&Record{Type: RecCommit, Tx: 1})
		if _, err := w.Flush(0, lsn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushTail is the kv-write commit as the log sees it — two 288 B
// heap after-images and a commit record, then a flush — on the two kinds of
// device a log lives on. On a File the flush is a range write: devB/commit is
// what the host hands the device, the quantity the paper's Table 1 takes from
// blktrace. The simulated SSD has no range path and maps whole 8 KB pages, so
// there every flush is still a page write and a page program: phys_writes/commit
// does not move with the File numbers.
func BenchmarkFlushTail(b *testing.B) {
	b.Run("File", func(b *testing.B) { benchFlushTail(b, newFileDev(b, page.Size, flushTailRing)) })
	b.Run("flashSSD", func(b *testing.B) { benchFlushTail(b, flash.New(flash.DefaultConfig(), nil)) })
}

// flushTailRing is how many pages of the device the benchmark's log uses
// before it begins a new log at page 0 again, so that any b.N fits. The log
// is never read back, so the restart zeroes no window (NewWriter, not
// NewWriterAt) and costs nothing a commit would not.
const flushTailRing = 4096

// The kv-write commit as the log sees it: 2 × (35 + 288) + 35 = 681 B.
var (
	flushTailHeap   = &Record{Type: RecHeapInsert, Tx: 1, Rel: 2, Data: make([]byte, 288)}
	flushTailCommit = &Record{Type: RecCommit, Tx: 1}
)

// commitFlushTail appends one kv-write commit to w and flushes it.
func commitFlushTail(tb testing.TB, w *Writer) {
	w.Append(flushTailHeap)
	w.Append(flushTailHeap)
	if _, err := w.Flush(0, w.Append(flushTailCommit)); err != nil {
		tb.Fatal(err)
	}
}

func benchFlushTail(b *testing.B, dev device.BlockDevice) {
	w := NewWriter(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.NextLSN() > (flushTailRing-1)*page.Size {
			w = NewWriter(dev)
		}
		commitFlushTail(b, w)
	}
	b.StopTimer()
	st := dev.Stats()
	b.ReportMetric(float64(st.BytesWritten)/float64(b.N), "devB/commit")
	b.ReportMetric(float64(st.Writes)/float64(b.N), "writes/commit")
	if st.PhysWrites > 0 {
		b.ReportMetric(float64(st.PhysWrites)/float64(b.N), "phys_writes/commit")
	}
}

// BenchmarkScanThroughput is recovery's read of the log: 5,000 heap records
// scanned from a simulated device and from a file. Its allocations are the
// scan buffers, one per 32-page run, not one per record.
func BenchmarkScanThroughput(b *testing.B) {
	b.Run("Mem", func(b *testing.B) { benchScan(b, device.NewMem(page.Size, 1<<16)) })
	b.Run("File", func(b *testing.B) { benchScan(b, newFileDev(b, page.Size, 1024)) })
}

func benchScan(b *testing.B, dev device.BlockDevice) {
	const records = 5000
	writeLog(b, dev, records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := scanCount(b, dev); n != records {
			b.Fatalf("scanned %d", n)
		}
	}
}
