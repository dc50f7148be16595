package core

import (
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Replica-side incremental apply: a replication follower folds each primary
// WAL record into the volatile read structures (VIDmap, indexes, block
// bookkeeping) as it replays, mirroring exactly what the primary's live write
// path did when it produced the record. RebuildFromHeap is where a restart
// begins — it leaves undecided writers in the state these methods would have
// — and from there on these methods keep the state current without an
// O(state) rescan.
//
// All methods here are driven by engine.ApplyRecord, which the repl.Follower
// serializes against reads, so per-transaction tracking needs no extra
// synchronization beyond r.mu.

// replayOp records one replayed write of a transaction with no outcome yet,
// so that its commit/abort can be resolved the way the primary's transaction
// finish hooks did: commit queues the superseded predecessor for GC, abort
// swings the VIDmap entrypoint back.
type replayOp struct {
	vid  uint64
	tid  page.TID // the version this op wrote
	pred page.TID // previous entrypoint (invalid for fresh inserts)
}

// ApplyInsert folds one replicated RecHeapInsert into the volatile state,
// after the heap redo placed the tuple. The record's own bytes carry
// everything needed (Section 6): VID, creating transaction and back pointer.
//
// A GC relocation is recognized by rec.Tx != header.Create — the collector
// re-appends live entrypoints under its own never-committed transaction while
// preserving the original creation stamp, and holds the item lock across the
// append and the VIDmap swing, so in log order the entrypoint moves
// unconditionally and no index entry changes (SIAS indexes map keys to VIDs,
// which relocation keeps). Any other write is tracked under its transaction
// until ApplyFinish resolves it.
func (r *Relation) ApplyInsert(at simclock.Time, rec *wal.Record, keyOf func(payload []byte) int64) (simclock.Time, error) {
	hdr, payload, err := tuple.DecodeSIAS(rec.Data)
	if err != nil {
		return at, err
	}
	block := rec.TID.Block
	relocation := rec.Tx != hdr.Create

	r.mu.Lock()
	if block+1 > r.nextBlock {
		r.nextBlock = block + 1
	}
	// The primary reuses GC-freed blocks for fresh appends; mirror the
	// free-list pop the first time a freed block shows up again.
	for i, fb := range r.freeBlocks {
		if fb == block {
			r.freeBlocks = append(r.freeBlocks[:i], r.freeBlocks[i+1:]...)
			break
		}
	}
	r.tupleCount[block]++
	if !relocation {
		if r.replay == nil {
			r.replay = map[txn.ID][]replayOp{}
		}
		r.replay[rec.Tx] = append(r.replay[rec.Tx], replayOp{vid: hdr.VID, tid: rec.TID, pred: hdr.Pred})
	}
	r.mu.Unlock()

	r.stats.appends.Add(1)
	// The entrypoint moves to the new version immediately, exactly as on the
	// primary: an uncommitted version is invisible to every snapshot and the
	// chain walk passes through it, while an abort swings it back (below).
	r.vmap.Set(hdr.VID, rec.TID)
	r.vmap.SetNextVID(hdr.VID + 1)
	if relocation {
		return at, nil
	}
	if hdr.Tombstone() {
		r.stats.tombstones.Add(1)
		return at, nil // tombstones carry no payload and no index entries
	}

	// Index maintenance converges on the primary's through set semantics: the
	// live path inserts <key, VID> on Insert and only on key change for
	// Update, but an unchanged key already has its entry from the prior
	// version, so set inserts reproduce the same tree content.
	t, err := r.addEntry(at, r.pk, keyOf(payload), hdr.VID)
	if err != nil {
		return t, err
	}
	secs, secFns := r.secSnapshot()
	for i, sec := range secs {
		if sec == nil {
			continue
		}
		if k, ok := secFns[i](payload); ok {
			if t, err = r.addEntry(t, sec, k, hdr.VID); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// ApplyFinish resolves the tracked writes of one transaction once its outcome
// is known — its replicated commit or abort record arrived, or the engine
// decided it after reading a log that ends without one — mirroring the
// primary's OnFinish hooks: commit queues each superseded predecessor as pending
// garbage under the committing id; abort unwinds the entrypoint swings —
// newest-first, like the LIFO finish hooks, so a multi-update chain lands
// back on the pre-transaction version — and marks the doomed versions dead.
func (r *Relation) ApplyFinish(id txn.ID, committed bool) {
	r.mu.Lock()
	ops, ok := r.replay[id]
	if ok {
		delete(r.replay, id)
	}
	if committed {
		for _, op := range ops {
			if op.pred.Valid() {
				r.pendingDead = append(r.pendingDead, pendingDead{pred: op.pred, by: id})
			}
		}
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.pred.Valid() {
			r.vmap.CompareAndSwap(op.vid, op.tid, op.pred)
		} else {
			r.vmap.Clear(op.vid, op.tid)
		}
		r.noteDead(op.tid)
	}
}

// ApplyBlockFree mirrors a primary GC page reclamation (RecHeapDead with the
// whole-block slot marker): every version on the block is dead or relocated,
// so the dead set forgets it and it returns to the free list for reuse.
func (r *Relation) ApplyBlockFree(block uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.forgetDeadLocked(block)
	r.tupleCount[block] = 0
	for _, fb := range r.freeBlocks {
		if fb == block {
			return // already free (defensive: records apply exactly once)
		}
	}
	r.freeBlocks = append(r.freeBlocks, block)
	r.stats.gcPages.Add(1)
}

// ReplayInFlight reports the ids of transactions with replayed writes and no
// outcome yet: what the engine has to finish itself when no more log is
// coming (recovery of a primary, promotion of a follower).
func (r *Relation) ReplayInFlight() []txn.ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]txn.ID, 0, len(r.replay))
	for id := range r.replay {
		ids = append(ids, id)
	}
	return ids
}
