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
			if at, err = rel.updateVID(u, at, vid, int64(i), func(uint64, page.TID, []byte) ([]byte, int64, error) {
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

// TestDeadSetBitmap pins the dead set's bookkeeping: a slot counts once
// however often it is marked, slots in different bitmap words and blocks
// stay apart, and a reclaimed block forgets every slot.
func TestDeadSetBitmap(t *testing.T) {
	r := &Relation{}
	dead := []page.TID{{Block: 5, Slot: 0}, {Block: 5, Slot: 63}, {Block: 5, Slot: 64}, {Block: 5, Slot: 200}, {Block: 9, Slot: 64}}
	for _, tid := range append(dead, dead[2], dead[4]) {
		r.markDeadLocked(tid)
	}
	for _, tid := range dead {
		if !r.isDeadLocked(tid) {
			t.Errorf("%v marked dead, not reported dead", tid)
		}
	}
	for _, tid := range []page.TID{{Block: 5, Slot: 1}, {Block: 5, Slot: 65}, {Block: 5, Slot: 1000}, {Block: 4, Slot: 0}, {Block: 9, Slot: 0}, {Block: 1 << 20, Slot: 0}} {
		if r.isDeadLocked(tid) {
			t.Errorf("%v never marked, reported dead", tid)
		}
	}
	if n5, n9 := r.deadByBlock[5].n, r.deadByBlock[9].n; n5 != 4 || n9 != 1 {
		t.Errorf("dead counts: block 5 %d, block 9 %d; want 4 and 1", n5, n9)
	}
	r.forgetDeadLocked(5)
	r.forgetDeadLocked(1 << 20) // never marked: nothing to forget
	if r.deadByBlock[5].n != 0 || r.isDeadLocked(dead[0]) || r.isDeadLocked(dead[3]) || !r.isDeadLocked(dead[4]) {
		t.Error("forgetting block 5 left its slots dead or cleared block 9's")
	}
}
