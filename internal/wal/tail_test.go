package wal

import (
	"bytes"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
)

// fill appends n commit records and flushes, returning the durable LSN.
func fill(t *testing.T, w *Writer, firstTx, n int) LSN {
	t.Helper()
	var last LSN
	for i := 0; i < n; i++ {
		last = w.Append(&Record{Type: RecCommit, Tx: txn.ID(firstTx + i)})
	}
	if _, err := w.Flush(0, last); err != nil {
		t.Fatal(err)
	}
	return w.Durable()
}

func scanAll(t testing.TB, dev device.BlockDevice) (recs []Record, end LSN) {
	t.Helper()
	end, err := Scan(dev, func(_ LSN, rec Record) error {
		rec.Data = bytes.Clone(rec.Data) // valid only until fn returns
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, end
}

// Scan still stops at a torn tail when it is the true end of the log.
func TestScanStopsAtFinalTornTail(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	durable := fill(t, w, 1, 2)

	ps := page.Size
	tailPage := int64(durable) / int64(ps)
	buf := make([]byte, ps)
	if _, err := dev.ReadPage(0, tailPage, buf); err != nil {
		t.Fatal(err)
	}
	torn := EncodeRecord(&Record{Type: RecHeapInsert, Tx: 9, Data: []byte("lost")})
	copy(buf[int(durable)%ps:], torn[:len(torn)-3])
	if _, err := dev.WritePage(0, tailPage, buf); err != nil {
		t.Fatal(err)
	}

	recs, end := scanAll(t, dev)
	if len(recs) != 2 {
		t.Fatalf("scanned %d records, want 2", len(recs))
	}
	if end != durable {
		t.Errorf("scan end = %d, want durable %d (torn tail excluded)", end, durable)
	}
}

// TestScanEndsAtFirstHole: a torn flush that lost one sector mid-stream — the
// one that holds B's header — leaves the log as the records before B. Records
// A and B fill page 0 exactly, so C starts on a page boundary, where a scan
// that stepped over a hole to the next page would pick the stream up again
// and replay C and D without B. Scan and ReadBatch must stop at B's start.
func TestScanEndsAtFirstHole(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  device.BlockDevice
	}{
		{"Mem", newDev()},
		{"File", newFileDev(t, page.Size, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bStart = 2 * sectorSize // A ends on a sector boundary, so the hole leaves it whole
			a := heapRec(1, bStart-recHeaderSize)
			b := heapRec(2, page.Size-bStart-recHeaderSize)
			w := NewWriter(tc.dev)
			w.Append(&a)
			if end := w.Append(&b); end != page.Size {
				t.Fatalf("A and B end at %d, want the page boundary", end)
			}
			w.Append(&Record{Type: RecCommit, Tx: 2})
			w.Append(&Record{Type: RecCommit, Tx: 3})
			if _, err := w.Flush(0, w.NextLSN()); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, page.Size)
			if _, err := tc.dev.ReadPage(0, 0, buf); err != nil {
				t.Fatal(err)
			}
			clear(buf[bStart : bStart+sectorSize])
			if _, err := tc.dev.WritePage(0, 0, buf); err != nil {
				t.Fatal(err)
			}

			recs, end := scanAll(t, tc.dev)
			sameRecords(t, "Scan", recs, []Record{a})
			if end != bStart {
				t.Errorf("Scan ends at %d, want %d, where B starts", end, bStart)
			}
			data, err := ReadBatch(tc.dev, 0, w.Durable(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, EncodeRecord(&a)) {
				t.Errorf("ReadBatch shipped %d bytes, want A's %d", len(data), bStart)
			}
			if data, err := ReadBatch(tc.dev, bStart, w.Durable(), 0); err == nil {
				t.Errorf("ReadBatch at the hole shipped %d bytes, want an error", len(data))
			}
		})
	}
}

func TestTailReaderStreamsVerbatimBytes(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	var want []byte
	var last LSN
	for i := 0; i < 40; i++ {
		r := Record{Type: RecHeapInsert, Tx: txn.ID(i + 1), Rel: 1,
			TID: page.TID{Block: uint32(i)}, Data: bytes.Repeat([]byte{byte(i)}, 100)}
		want = append(want, EncodeRecord(&r)...)
		last = w.Append(&r)
	}
	if _, err := w.Flush(0, last); err != nil {
		t.Fatal(err)
	}
	durable := w.Durable()

	var got []byte
	for LSN(len(got)) < durable { // the cursor is what has been shipped
		data, err := ReadBatch(dev, LSN(len(got)), durable, 512)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("cursor stuck at %d", len(got))
		}
		got = append(got, data...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shipped bytes differ from encoded log: got %d bytes, want %d", len(got), len(want))
	}
}

// NewWriterResume must preserve the existing partial tail page and keep the
// resumed log byte-identical to one written in a single run.
func TestWriterResumeKeepsTailPage(t *testing.T) {
	one := newDev()   // written in one run
	split := newDev() // same records, writer restarted mid-page

	w1 := NewWriter(one)
	ws := NewWriter(split)
	recs := []Record{
		{Type: RecHeapInsert, Tx: 1, Rel: 1, Data: []byte("alpha")},
		{Type: RecCommit, Tx: 1},
		{Type: RecHeapInsert, Tx: 2, Rel: 1, Data: bytes.Repeat([]byte{7}, 500)},
		{Type: RecCommit, Tx: 2},
	}
	for i := range recs[:2] {
		w1.Append(&recs[i])
		ws.Append(&recs[i])
	}
	if _, err := w1.Flush(0, w1.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Flush(0, ws.NextLSN()); err != nil {
		t.Fatal(err)
	}

	// Resume the split device mid-page, as a follower does after restart.
	wr, err := NewWriterResume(split, ws.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if wr.NextLSN() != ws.Durable() {
		t.Fatalf("resume next LSN = %d, want %d", wr.NextLSN(), ws.Durable())
	}
	for i := range recs[2:] {
		w1.Append(&recs[2+i])
		wr.Append(&recs[2+i])
	}
	if _, err := w1.Flush(0, w1.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := wr.Flush(0, wr.NextLSN()); err != nil {
		t.Fatal(err)
	}

	ps := page.Size
	buf1, bufS := make([]byte, ps), make([]byte, ps)
	pages := (int64(w1.Durable()) + int64(ps) - 1) / int64(ps)
	for p := int64(0); p < pages; p++ {
		if _, err := one.ReadPage(0, p, buf1); err != nil {
			t.Fatal(err)
		}
		if _, err := split.ReadPage(0, p, bufS); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1, bufS) {
			t.Fatalf("page %d differs between continuous and resumed log", p)
		}
	}
	recsOne, _ := scanAll(t, one)
	recsSplit, _ := scanAll(t, split)
	if len(recsOne) != len(recs) || len(recsSplit) != len(recs) {
		t.Fatalf("scan counts: continuous %d, resumed %d, want %d", len(recsOne), len(recsSplit), len(recs))
	}
}
