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
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, end
}

// A torn tail from an abandoned generation must not stop Scan from reaching
// records in a newer generation past it.
func TestScanSkipsTornTailBetweenGenerations(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	durable := fill(t, w, 1, 3)

	// Simulate a torn tail: scribble a half-written record after the durable
	// prefix on the flushed tail page, as a crashed flush could leave it.
	ps := page.Size
	tailPage := int64(durable) / int64(ps)
	buf := make([]byte, ps)
	if _, err := dev.ReadPage(0, tailPage, buf); err != nil {
		t.Fatal(err)
	}
	torn := EncodeRecord(&Record{Type: RecHeapInsert, Tx: 99, Data: []byte("lost")})
	off := int(durable) % ps
	copy(buf[off:], torn[:len(torn)-3]) // drop last bytes: CRC cannot match
	if _, err := dev.WritePage(0, tailPage, buf); err != nil {
		t.Fatal(err)
	}

	// New generation begins at the next page boundary, as after recovery.
	gen2 := LSN((int64(durable) + int64(ps) - 1) / int64(ps) * int64(ps))
	w2 := newWriterAt(t, dev, gen2)
	if _, err := w2.Flush(0, w2.Append(&Record{Type: RecCommit, Tx: 50})); err != nil {
		t.Fatal(err)
	}

	recs, end := scanAll(t, dev)
	if len(recs) != 4 {
		t.Fatalf("scanned %d records, want 4 (3 old + 1 new past torn tail)", len(recs))
	}
	if recs[3].Tx != 50 {
		t.Errorf("last record tx = %d, want 50 from the new generation", recs[3].Tx)
	}
	if end != w2.Durable() {
		t.Errorf("scan end = %d, want %d", end, w2.Durable())
	}
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

	tr := NewTailReader(dev)
	var got []byte
	cursor := LSN(0)
	for cursor < durable {
		start, data, next, err := tr.ReadBatch(cursor, durable, 512)
		if err != nil {
			t.Fatal(err)
		}
		if next <= cursor {
			t.Fatalf("cursor stuck at %d", cursor)
		}
		if data != nil && start != cursor {
			t.Fatalf("batch start = %d, want contiguous %d", start, cursor)
		}
		got = append(got, data...)
		cursor = next
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shipped bytes differ from encoded log: got %d bytes, want %d", len(got), len(want))
	}
}

// A follower cursor parked before inter-generation padding must advance
// through it and pick up the next generation's records.
func TestTailReaderSkipsGenerationGap(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	durable := fill(t, w, 1, 3)

	ps := page.Size
	gen2 := LSN((int64(durable) + int64(ps) - 1) / int64(ps) * int64(ps))
	w2 := newWriterAt(t, dev, gen2)
	rec := Record{Type: RecCommit, Tx: 77}
	wantBytes := EncodeRecord(&rec)
	if _, err := w2.Flush(0, w2.Append(&rec)); err != nil {
		t.Fatal(err)
	}

	tr := NewTailReader(dev)
	cursor := durable
	var got []byte
	var start LSN
	for len(got) == 0 {
		var data []byte
		var next LSN
		var err error
		start, data, next, err = tr.ReadBatch(cursor, w2.Durable(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if next <= cursor {
			t.Fatalf("cursor stuck at %d crossing generation gap", cursor)
		}
		got = append(got, data...)
		cursor = next
	}
	if start != gen2 {
		t.Errorf("batch start = %d, want generation start %d", start, gen2)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("bytes across gap differ: got %x want %x", got, wantBytes)
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

// SkipTo mirrors the primary's generation padding on a follower: appending
// past a gap keeps offsets identical to a log that was rounded up by Open.
func TestSkipToMirrorsGenerationPadding(t *testing.T) {
	dev := newDev()
	w := NewWriter(dev)
	durable := fill(t, w, 1, 1)

	ps := page.Size
	gen2 := LSN((int64(durable) + int64(ps) - 1) / int64(ps) * int64(ps))
	w.SkipTo(gen2)
	if w.NextLSN() != gen2 {
		t.Fatalf("after SkipTo next = %d, want %d", w.NextLSN(), gen2)
	}
	rec := Record{Type: RecCommit, Tx: 2}
	lsn := w.Append(&rec) // returns the LSN just past the record
	if want := gen2 + LSN(len(EncodeRecord(&rec))); lsn != want {
		t.Fatalf("record after SkipTo ends at %d, want %d", lsn, want)
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	recs, _ := scanAll(t, dev)
	if len(recs) != 2 || recs[1].Tx != 2 {
		t.Fatalf("scan after SkipTo = %+v, want both records", recs)
	}
}
