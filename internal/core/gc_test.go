package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/space"
	"sias/internal/txn"
	"sias/internal/wal"
)

// gcRound builds a relation whose updates leave many sealed pages mostly
// dead, runs one GC round over it, and returns every record that round
// appended to the log.
func gcRound(t *testing.T) []wal.Record {
	t.Helper()
	dev := device.NewMem(page.Size, 1<<12)
	walDev := device.NewMem(page.Size, 1<<10)
	pool := buffer.New(buffer.Config{Frames: 512}, dev)
	walw := wal.NewWriter(walDev)
	txm := txn.NewManager()
	rel, at, err := New(0, Config{
		ID: 1, Name: "t", Pool: pool, Alloc: space.NewAllocator(dev.NumPages(), 64),
		WAL: walw, Txns: txm, PKRelID: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const items, rounds = 12, 8
	big := make([]byte, 1500)
	vids := make([]uint64, items)
	setup := txm.Begin()
	for i := range vids {
		if vids[i], at, err = rel.Insert(setup, at, int64(i), big); err != nil {
			t.Fatal(err)
		}
	}
	txm.Commit(setup)
	for r := 0; r < rounds; r++ {
		for i, vid := range vids {
			u := txm.Begin()
			if at, err = rel.UpdateByVID(u, at, vid, int64(i), func([]byte) ([]byte, int64, error) {
				return big, int64(i), nil
			}); err != nil {
				t.Fatal(err)
			}
			txm.Commit(u)
		}
	}
	if at, err = rel.SealAppend(at, false); err != nil {
		t.Fatal(err)
	}
	from := walw.NextLSN()
	if _, at, err = rel.GC(at, txm.Horizon()); err != nil {
		t.Fatal(err)
	}
	if _, err = walw.Flush(at, walw.NextLSN()); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	if _, err := wal.Scan(walDev, func(lsn wal.LSN, rec wal.Record) error {
		if lsn >= from {
			rec.Data = append([]byte(nil), rec.Data...) // Scan reuses its buffers
			recs = append(recs, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestGCVictimsInBlockOrder pins that a GC round collects its victims in
// ascending block order — the whole-block RecHeapDead markers it appends
// come sorted — so two identical relations collect identically, record for
// record, instead of in the random order of the dead-set map.
func TestGCVictimsInBlockOrder(t *testing.T) {
	recs := gcRound(t)
	var blocks []uint32
	for _, rec := range recs {
		if rec.Type == wal.RecHeapDead && rec.TID.Slot == ^uint16(0) {
			blocks = append(blocks, rec.TID.Block)
		}
	}
	if len(blocks) < 8 {
		t.Fatalf("GC reclaimed %d blocks, want at least 8 for the order to mean anything", len(blocks))
	}
	if !slices.IsSorted(blocks) {
		t.Errorf("GC reclaimed blocks in the order %v, want ascending", blocks)
	}
	if again := gcRound(t); !reflect.DeepEqual(recs, again) {
		t.Errorf("two identical relations collected differently:\n%s\n%s", fmt.Sprint(recs), fmt.Sprint(again))
	}
}
