package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
)

// commitWithZeroCRCPrefix returns a commit record whose encoding starts with
// `zeros` zero bytes — the low bytes of its CRC. The search re-frames one
// buffer in place; three zero bytes take about 2^24 candidates.
func commitWithZeroCRCPrefix(t *testing.T, zeros int) *Record {
	t.Helper()
	b := EncodeRecord(&Record{Type: RecCommit})
	mask := uint32(1)<<(8*zeros) - 1
	for tx := uint64(2); tx < 1<<32; tx++ {
		binary.LittleEndian.PutUint64(b[9:], tx)
		if crc32.Checksum(b[4:], castagnoli)&mask == 0 {
			rec := &Record{Type: RecCommit, Tx: txn.ID(tx)}
			if enc := EncodeRecord(rec); !allZeros(enc[:zeros]) {
				t.Fatalf("search and EncodeRecord disagree on tx %d", tx)
			}
			return rec
		}
	}
	t.Fatalf("no commit record with %d leading zero CRC bytes", zeros)
	return nil
}

// straddleLog writes an intact log in which `straddler` starts `before` bytes
// ahead of the first page boundary, with `tail` more records behind it, and
// returns the device, the record count and the durable end.
func straddleLog(t *testing.T, straddler *Record, before, tail int) (device.BlockDevice, int, LSN) {
	t.Helper()
	dev := device.NewMem(page.Size, 256)
	w := NewWriter(dev)
	w.Append(&Record{Type: RecHeapInsert, Tx: 1, Rel: 1, Data: make([]byte, page.Size-before-recHeaderSize)})
	if got := int(w.NextLSN()); got != page.Size-before {
		t.Fatalf("filler ends at %d, want %d", got, page.Size-before)
	}
	w.Append(straddler)
	for i := 0; i < tail; i++ {
		w.Append(&Record{Type: RecHeapInsert, Tx: 3, Rel: 1, Data: make([]byte, 300)})
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	return dev, tail + 2, w.Durable()
}

// tailRecords counts the records ReadBatch ships between 0 and limit, the
// way a replication subscriber walks the log.
func tailRecords(t *testing.T, dev device.BlockDevice, limit LSN) int {
	t.Helper()
	n := 0
	for cur := LSN(0); cur < limit; {
		data, err := ReadBatch(dev, cur, limit, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur += LSN(len(data))
		for len(data) > 0 {
			_, m, derr := DecodeRecord(data)
			if derr != nil {
				t.Fatalf("shipped batch does not decode: %v", derr)
			}
			data = data[m:]
			n++
		}
	}
	return n
}

func allZeros(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestScanRecordStartingInLastBytesOfPage is the reproduction of the seed's
// scanner defect (bench/README.md, "Seed defect"): a record that starts in
// the last bytes of a page and leads with zero CRC bytes looked like
// padding, the scanner stepped over it one byte (or two, or three) out of
// frame, and every later record of the intact, acknowledged log failed its
// CRC. Scan and ReadBatch must return every record.
func TestScanRecordStartingInLastBytesOfPage(t *testing.T) {
	for zeros := 1; zeros <= 3; zeros++ {
		rec := commitWithZeroCRCPrefix(t, zeros)
		// The defect needs every byte up to the boundary to be zero, so the
		// record starts exactly `zeros` bytes before it.
		t.Run(fmt.Sprintf("zero-crc-bytes=%d", zeros), func(t *testing.T) {
			dev, want, durable := straddleLog(t, rec, zeros, 500)
			recs, end := scanAll(t, dev)
			if len(recs) != want {
				t.Fatalf("Scan returned %d of %d records", len(recs), want)
			}
			if recs[1].Type != RecCommit || recs[1].Tx != rec.Tx {
				t.Errorf("record 1 = %s tx %d, want the straddling commit tx %d", recs[1].Type, recs[1].Tx, rec.Tx)
			}
			if end != durable {
				t.Errorf("scan end = %d, want durable %d", end, durable)
			}
			if got := tailRecords(t, dev, durable); got != want {
				t.Errorf("ReadBatch shipped %d of %d records", got, want)
			}
		})
	}
}

// TestScanRecordStartingAnywhereInHeaderBeforeBoundary cuts the straddling
// record's header at every possible point: 1…recHeaderSize-1 bytes of it sit
// before the page boundary (the first three with that many zero CRC bytes).
func TestScanRecordStartingAnywhereInHeaderBeforeBoundary(t *testing.T) {
	byZeros := map[int]*Record{}
	for before := 1; before < recHeaderSize; before++ {
		zeros := before
		if zeros > 3 {
			zeros = 3
		}
		if byZeros[zeros] == nil {
			byZeros[zeros] = commitWithZeroCRCPrefix(t, zeros)
		}
		dev, want, durable := straddleLog(t, byZeros[zeros], before, 40)
		if recs, end := scanAll(t, dev); len(recs) != want || end != durable {
			t.Errorf("header cut %d bytes in: Scan returned %d of %d records, end %d of %d",
				before, len(recs), want, end, durable)
		}
		if got := tailRecords(t, dev, durable); got != want {
			t.Errorf("header cut %d bytes in: ReadBatch shipped %d of %d records", before, got, want)
		}
	}
}
