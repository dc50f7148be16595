package wal

import (
	"bytes"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
)

// TestAppendDuringFlushSurvives appends records from inside the device write
// of a flush — the window in which the writing caller reads the pending bytes
// without the buffer latch. The records must neither disturb
// the pages being written nor be lost to the trim that follows: a second
// flush plus a scan returns every record, in order, intact. On the range path
// (File) the hook runs once per flush, on the page path (Mem) once per page.
func TestAppendDuringFlushSurvives(t *testing.T) {
	testAppendDuringFlushSurvives(t, func(*testing.T) device.BlockDevice { return newDev() })
	t.Run("on File", func(t *testing.T) {
		testAppendDuringFlushSurvives(t, func(t *testing.T) device.BlockDevice { return newFileDev(t, page.Size, 1024) })
	})
}

func testAppendDuringFlushSurvives(t *testing.T, newDev func(*testing.T) device.BlockDevice) {
	cases := []struct {
		name   string
		before int // records appended before the first flush
		size   int // their payload size
		during int // payload size of the records appended by the write hook
	}{
		{"tail page only", 3, 200, 150},
		{"spill over several pages", 10, 3000, 150},
		{"append outgrows the pending array", 3, 200, 40000},
		{"flush ends on a page boundary", 1, 8192 - recHeaderSize, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := device.NewWrap(newDev(t))
			w := NewWriter(dev)
			var want []Record
			add := func(size int) LSN {
				rec := Record{Type: RecHeapInsert, Tx: txn.ID(len(want) + 1), Rel: 2,
					Data: bytes.Repeat([]byte{byte(len(want) + 1)}, size)}
				want = append(want, rec)
				return w.Append(&rec)
			}
			flushing := true
			dev.SetWriteHook(func(int64) error {
				if flushing {
					add(tc.during) // one record per device write of the first flush
				}
				return nil
			})

			var lsn LSN
			for i := 0; i < tc.before; i++ {
				lsn = add(tc.size)
			}
			if _, err := w.Flush(0, lsn); err != nil {
				t.Fatal(err)
			}
			flushing = false
			if len(want) == tc.before {
				t.Fatal("the write hook appended nothing")
			}
			if w.Durable() != lsn {
				t.Fatalf("durable = %d after the first flush, want %d (the snapshot, not the appends behind it)", w.Durable(), lsn)
			}
			if _, err := w.Flush(0, w.NextLSN()); err != nil {
				t.Fatal(err)
			}

			var got []Record
			end, err := Scan(dev, func(_ LSN, rec Record) error {
				rec.Data = bytes.Clone(rec.Data) // valid only until fn returns
				got = append(got, rec)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if end != w.NextLSN() {
				t.Errorf("scan ended at %d, log ends at %d", end, w.NextLSN())
			}
			if len(got) != len(want) {
				t.Fatalf("scanned %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Tx != want[i].Tx || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("record %d: tx %d with %d bytes, want tx %d with %d bytes",
						i, got[i].Tx, len(got[i].Data), want[i].Tx, len(want[i].Data))
				}
			}
		})
	}
}

// TestFlushAllocatesNothing pins the flush budget of a small commit: two heap
// after-images and a commit record go to the device through the writer's own
// buffer, and pending is trimmed where it lies — on either path, and the 4,100
// commits cross some 330 page boundaries on the way. The appends are
// measured apart and taken off (TestAppendAllocBudget holds them at 0).
func TestFlushAllocatesNothing(t *testing.T) {
	testFlushAllocatesNothing(t, newDev())
	t.Run("on File", func(t *testing.T) { testFlushAllocatesNothing(t, newFileDev(t, page.Size, 1024)) })
}

func testFlushAllocatesNothing(t *testing.T, dev device.BlockDevice) {
	w := NewWriter(dev) // 1024 pages: ~11,000 of these commits
	heap := &Record{Type: RecHeapInsert, Tx: 1, Rel: 2, Data: make([]byte, 256)}
	commit := &Record{Type: RecCommit, Tx: 1}
	appendCommit := func() LSN {
		w.Append(heap)
		w.Append(heap)
		return w.Append(commit)
	}
	// Warm up: the page buffer, pending's array and the first device pages.
	for i := 0; i < 100; i++ {
		if _, err := w.Flush(0, appendCommit()); err != nil {
			t.Fatal(err)
		}
	}
	appends := testing.AllocsPerRun(2000, func() { appendCommit() })
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	withFlush := testing.AllocsPerRun(2000, func() {
		if _, err := w.Flush(0, appendCommit()); err != nil {
			t.Fatal(err)
		}
	})
	if withFlush != appends {
		t.Errorf("append+flush allocates %v times, the appends alone %v: Flush allocates %v, want 0",
			withFlush, appends, withFlush-appends)
	}
}
