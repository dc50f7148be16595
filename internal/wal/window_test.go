package wal

import (
	"bytes"
	"fmt"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
)

// TestTornWindowNeverReplays: debris a torn write left past the end of the
// intact records — CRC-valid records included, three and more pages on, where
// recovery's Scan stopped at two zero pages short of them — is zeroed by the
// next generation before its first record. Scan of the grown log returns
// exactly its records, on either write path and either way of reopening,
// however far the new records reach toward the debris. The last subtests tear
// a flush that splits inside a record longer than a page, so recovery ends
// more than a page before the torn write begins.
func TestTornWindowNeverReplays(t *testing.T) {
	const pages = 2 * window
	devs := []struct {
		name string
		new  func(t *testing.T) device.BlockDevice
	}{
		{"File", func(t *testing.T) device.BlockDevice { return newFileDev(t, page.Size, pages) }},
		{"Mem", func(*testing.T) device.BlockDevice { return device.NewMem(page.Size, pages) }},
	}
	opens := []struct {
		name string
		open func(dev device.BlockDevice, end LSN) (*Writer, error)
	}{
		{"NewWriterAt", func(dev device.BlockDevice, end LSN) (*Writer, error) {
			return NewWriterAt(dev, (end+page.Size-1)/page.Size*page.Size)
		}},
		{"NewWriterResume", NewWriterResume},
	}
	firstGens := []struct {
		name  string
		sizes []int // payloads of the first generation's records
	}{
		{"end mid-page", []int{3000, 3000}},
		{"end on a page boundary", []int{page.Size - recHeaderSize}},
	}
	for _, d := range devs {
		for _, o := range opens {
			for _, g := range firstGens {
				for zeroAt := int64(1); zeroAt <= 2; zeroAt++ {
					t.Run(fmt.Sprintf("%s/%s/%s/zero pages at +%d", d.name, o.name, g.name, zeroAt), func(t *testing.T) {
						dev := d.new(t)
						w := NewWriter(dev)
						var want []Record
						for _, size := range g.sizes {
							r := heapRec(len(want)+1, size)
							want = append(want, r)
							w.Append(&r)
						}
						if _, err := w.Flush(0, w.NextLSN()); err != nil {
							t.Fatal(err)
						}
						end := w.Durable()
						leaveDebris(t, dev, end, zeroAt)
						if recs, e := scanAll(t, dev); e != end || len(recs) != len(want) {
							t.Fatalf("recovery reads %d records ending at %d, want %d ending at %d: the debris is not past where it stops",
								len(recs), e, len(want), end)
						}

						w, err := o.open(dev, end)
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < 3; i++ { // 9 KB: past the next page boundary
							r := heapRec(len(want)+1, 3000)
							want = append(want, r)
							w.Append(&r)
						}
						if _, err := w.Flush(0, w.NextLSN()); err != nil {
							t.Fatal(err)
						}
						got, gotEnd := scanAll(t, dev)
						if gotEnd != w.Durable() {
							t.Fatalf("Scan ends at %d, want %d", gotEnd, w.Durable())
						}
						sameRecords(t, "the grown log", got, want)
					})
				}
			}
		}
	}

	// A flush that starts on a fresh log splits at page W = window. A record
	// of the longest heap size (an 8,164-B tuple, 8,199 B logged) starts 8,195
	// B before it, so more than a page; the record that must never replay
	// starts on the last page of the second write, Q. The power loss lands
	// that page and none of the pages from W up to it.
	ps := LSN(page.Size)
	split, q := window*ps, (2*window-1)*ps
	long := recHeaderSize + page.Size - page.HeaderSize - 4 // page.Insert's largest tuple
	for _, d := range devs {
		for _, o := range opens {
			t.Run(fmt.Sprintf("%s/%s/a %d-B record straddles a window split", d.name, o.name, long), func(t *testing.T) {
				dev := d.new(t)
				w := NewWriter(dev)
				want := fillTo(w, split-8195, 1)
				w.Append(&Record{Type: RecHeapInsert, Tx: 1 << 20, Rel: 2, Data: bytes.Repeat([]byte{7}, long-recHeaderSize)})
				fillTo(w, q, 1<<20+1)
				w.Append(&Record{Type: RecCommit, Tx: 1 << 30})
				if _, err := w.Flush(0, w.NextLSN()); err != nil {
					t.Fatal(err)
				}
				zero := make([]byte, page.Size)
				for pg := int64(split / ps); pg < int64(q/ps); pg++ {
					if _, err := dev.WritePage(0, pg, zero); err != nil {
						t.Fatal(err)
					}
				}
				recs, end := scanAll(t, dev)
				if end != split-8195 {
					t.Fatalf("recovery ends at %d, want %d, where the record that straddles the split starts", end, split-8195)
				}
				sameRecords(t, "recovery", recs, want)

				w, err := o.open(dev, end)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, fillTo(w, q-100, len(want)+1)...) // the grown log ends on the page before Q
				if _, err := w.Flush(0, w.NextLSN()); err != nil {
					t.Fatal(err)
				}
				got, gotEnd := scanAll(t, dev)
				if gotEnd != q-100 {
					t.Fatalf("Scan ends at %d, want %d", gotEnd, q-100)
				}
				sameRecords(t, "the grown log", got, want)
			})
		}
	}
}

// heapRec is a heap record of tx with size payload bytes.
func heapRec(tx, size int) Record {
	return Record{Type: RecHeapInsert, Tx: txn.ID(tx), Rel: 2, Data: bytes.Repeat([]byte{byte(tx)}, size)}
}

// fillTo appends heap records of transactions tx, tx+1, ... to w until its
// stream ends exactly at to, at least one record header past where it ends
// now, and returns them.
func fillTo(w *Writer, to LSN, tx int) []Record {
	var recs []Record
	for rest := int(to - w.NextLSN()); rest > 0; rest = int(to - w.NextLSN()) {
		size := min(4000, rest-recHeaderSize)
		if rest-(recHeaderSize+size) < recHeaderSize {
			size = rest - recHeaderSize // the last record takes what is left
		}
		r := heapRec(tx+len(recs), size)
		recs = append(recs, r)
		w.Append(&r)
	}
	return recs
}

// TestAppendRefusesOversizedRecord: Append takes a record of maxRecordSize
// bytes and panics on a longer one, which Scan would end the log at and the
// window argument does not cover.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	w := NewWriter(device.NewMem(page.Size, 4))
	w.Append(&Record{Type: RecDDL, Data: make([]byte, maxRecordSize-recHeaderSize)})
	defer func() {
		if recover() == nil {
			t.Error("Append took a record longer than maxRecordSize")
		}
	}()
	w.Append(&Record{Type: RecDDL, Data: make([]byte, maxRecordSize-recHeaderSize+1)})
}

// leaveDebris writes what a torn multi-page write could leave past end, the
// end of the intact records, across all a new writer zeroes (or to the device
// end): 0xEE bytes, with a CRC-valid record in the middle of
// every page and at the start of every page after end's. With zeroAt > 0,
// pages zeroAt and zeroAt+1 past end's stay zero and hold the first such
// page-start records after them, so recovery's Scan stops there; the bytes at
// end and at the start of every page before them never decode, so it finds
// nothing in them either.
func leaveDebris(t testing.TB, dev device.BlockDevice, end LSN, zeroAt int64) {
	t.Helper()
	ps := int64(dev.PageSize())
	endPage := int64(end) / ps
	last := min((int64(end)+ps-1)/ps+window+(maxRecordSize+ps-1)/ps, dev.NumPages()) // what zeroWindow zeroes, in pages
	buf := make([]byte, ps)
	for pg := endPage; pg < last; pg++ {
		if zeroAt > 0 && (pg == endPage+zeroAt || pg == endPage+zeroAt+1) {
			continue
		}
		if _, err := dev.ReadPage(0, pg, buf); err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			if pg*ps+int64(j) >= int64(end) {
				buf[j] = 0xEE
			}
		}
		stale := func(off int64) {
			copy(buf[off:], EncodeRecord(&Record{Type: RecCommit, Tx: txn.ID(1<<40 + pg*ps + off)}))
		}
		if pg*ps+ps/2 > int64(end) {
			stale(ps / 2)
		}
		if pg > endPage+zeroAt {
			stale(0)
		}
		if _, err := dev.WritePage(0, pg, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushBytesBudget pins what the kv-write commit costs the log device on
// the range path: BenchmarkFlushTail's 681-B commit, flushed on its own, is
// one write of the sectors it put bytes in — on average its own bytes plus
// one sector — and never the rest of a page.
func TestFlushBytesBudget(t *testing.T) {
	const commits = 3000
	dev := newFileDev(t, page.Size, 512)
	w := NewWriter(dev)
	for i := 0; i < commits; i++ {
		commitFlushTail(t, w)
	}
	st := dev.Stats()
	perCommit := float64(st.BytesWritten) / commits
	t.Logf("%.0f device bytes, %.2f writes per 681-B commit", perCommit, float64(st.Writes)/commits)
	if perCommit > 1210 {
		t.Errorf("a 681-B commit costs %.0f device bytes, want at most 1,210", perCommit)
	}
	if st.Writes != commits {
		t.Errorf("%d device writes for %d commits, want one each", st.Writes, commits)
	}
}

// TestFlushSplitsAtWindow: a flush of n bytes is ⌈n/W⌉ device writes for a
// window of W bytes, and under SetSyncOnWrite as many syncs; the writes cover
// exactly the stream, and the log reads back whole.
func TestFlushSplitsAtWindow(t *testing.T) {
	const winBytes = window * page.Size
	for _, n := range []int{winBytes, winBytes + sectorSize, 5 * winBytes / 2} {
		dev := newFileDev(t, page.Size, 3*window+2)
		dev.SetSyncOnWrite(true)
		w := NewWriter(dev)
		want := len(fillTo(w, LSN(n), 1))
		if _, err := w.Flush(0, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		st := dev.Stats()
		writes := int64((n + winBytes - 1) / winBytes)
		if st.Writes != writes || st.Syncs != writes || st.BytesWritten != int64(n) {
			t.Errorf("a %d-byte flush: %d writes, %d syncs, %d bytes, want %d, %d, %d",
				n, st.Writes, st.Syncs, st.BytesWritten, writes, writes, n)
		}
		if recs, end := scanAll(t, dev); len(recs) != want || end != LSN(n) {
			t.Errorf("a %d-byte flush reads back as %d records ending at %d, want %d ending at %d", n, len(recs), end, want, n)
		}
	}
}
