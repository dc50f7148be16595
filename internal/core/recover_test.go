package core

import (
	"bytes"
	"testing"

	"sias/internal/page"
	"sias/internal/simclock"
)

// TestRebuildLeavesUndecidedWriterWhereLiveDoes rebuilds a second relation
// from a heap that holds an undecided transaction — one that rewrote an item
// often enough for its chain to run from the append block into GC-reclaimed
// blocks with lower numbers, so heap order is not chain order, and that also
// inserted a fresh item — and checks it against the relation that did the
// writing: same entrypoints while the writer is open, and the same again once
// ApplyFinish has been told the outcome the live transaction got.
func TestRebuildLeavesUndecidedWriterWhereLiveDoes(t *testing.T) {
	for _, commit := range []bool{true, false} {
		e := newEnv(t)
		at := simclock.Time(0)
		row := func(key byte) []byte {
			p := make([]byte, 1500)
			p[0] = key
			return p
		}
		keyOf := func(p []byte) int64 { return int64(p[0]) }
		rewrite := func(key byte) func(uint64, page.TID, []byte) ([]byte, int64, error) {
			return func(uint64, page.TID, []byte) ([]byte, int64, error) { return row(key), int64(key), nil }
		}

		setup := e.txm.Begin()
		churn, at, _ := e.rel.Insert(setup, at, 1, row(1))
		item, at, _ := e.rel.Insert(setup, at, 2, row(2))
		e.txm.Commit(setup)
		// Churn one item and collect: low-numbered blocks return to the free
		// list, which the append path reuses before it extends the heap.
		for i := 0; i < 40; i++ {
			u := e.txm.Begin()
			at, _ = e.rel.updateVID(u, at, churn, 1, rewrite(1))
			e.txm.Commit(u)
		}
		at, _ = e.rel.SealAppend(at, false)
		if n, a, err := e.rel.GC(at, e.txm.Horizon()); err != nil || n < 2 {
			t.Fatalf("GC freed %d blocks (%v), the scenario needs a few", n, err)
		} else {
			at = a
		}

		open := e.txm.Begin()
		var err error
		for i := 0; i < 14; i++ {
			if at, err = e.rel.updateVID(open, at, item, 2, rewrite(2)); err != nil {
				t.Fatal(err)
			}
		}
		fresh, at, err := e.rel.Insert(open, at, 3, row(3))
		if err != nil {
			t.Fatal(err)
		}

		r2, at, err := New(at, Config{ID: 1, Name: "t", Pool: e.pool, Alloc: e.alloc, WAL: e.walw, Txns: e.txm, PKRelID: 9, KeyOf: keyOf})
		if err != nil {
			t.Fatal(err)
		}
		if at, err = r2.RebuildFromHeap(at, e.rel.Blocks()); err != nil {
			t.Fatal(err)
		}
		sameEntrypoints := func(when string) {
			t.Helper()
			for _, vid := range []uint64{churn, item, fresh} {
				a, aok := e.rel.vmap.Get(vid)
				b, bok := r2.vmap.Get(vid)
				if a != b || aok != bok {
					t.Errorf("commit=%v %s: vid %d entrypoint %v/%v live, %v/%v rebuilt", commit, when, vid, a, aok, b, bok)
				}
			}
		}
		sameEntrypoints("open")
		ops := r2.replay[open.ID]
		if len(ops) != 15 {
			t.Fatalf("rebuild tracks %d writes of the open transaction, want 15", len(ops))
		}
		inHeapOrder := true
		var last page.TID
		for _, op := range ops {
			if op.vid != item {
				continue
			}
			if op.tid.Block < last.Block {
				inHeapOrder = false
			}
			last = op.tid
		}
		if inHeapOrder {
			t.Fatal("the open transaction's chain never crossed into a reused block: heap order equals chain order and the test shows nothing")
		}

		if commit {
			e.txm.Commit(open)
		} else {
			e.txm.Abort(open)
		}
		r2.ApplyFinish(open.ID, commit)
		sameEntrypoints("finished")
		if len(r2.replay) != 0 {
			t.Errorf("commit=%v: %d transactions still tracked after the outcome", commit, len(r2.replay))
		}
		reader := e.txm.Begin()
		for _, vid := range []uint64{churn, item, fresh} {
			a, _, aerr := e.rel.getVID(reader, at, vid)
			b, _, berr := r2.getVID(reader, at, vid)
			if !bytes.Equal(a, b) || (aerr == nil) != (berr == nil) {
				t.Errorf("commit=%v: vid %d reads differ: %v vs %v", commit, vid, aerr, berr)
			}
		}
		if vids, _, _ := r2.PK.SearchAppend(at, 3, nil); len(vids) != 1 || vids[0] != fresh {
			t.Errorf("commit=%v: rebuilt primary index maps key 3 to %v, want [%d]", commit, vids, fresh)
		}
		e.txm.Commit(reader)
	}
}
