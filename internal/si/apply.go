package si

import (
	"errors"

	"sias/internal/index"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/wal"
)

// Replica-side incremental apply: a replication follower folds each primary
// WAL record into the FSM and indexes as it replays, so follower reads never
// pay the O(heap) RebuildFromHeap rescan. SI needs no
// per-transaction tracking — visibility is decided entirely by the on-page
// xmin/xmax against the CLOG, which the replicated commit/abort records
// rebuild, and aborted versions are pruned lazily exactly as on the primary
// (the primary's own prune emits RecHeapDead records this side mirrors).
//
// All methods are driven by engine.ApplyRecord, which the repl.Follower
// serializes against reads.

// refreshFreeLocked re-reads a block's free space into the FSM. Caller holds
// r.mu.
func (r *Relation) refreshFreeLocked(at simclock.Time, block uint32) (simclock.Time, error) {
	f, t, err := r.getPage(at, block, false)
	if err != nil {
		return t, err
	}
	f.RLock()
	free := f.Data.FreeSpace()
	f.RUnlock()
	r.pool.Release(f, false)
	r.setFree(block, free)
	return t, nil
}

// ApplyInsert folds one replicated RecHeapInsert into the volatile state
// after the heap redo placed the tuple: heap high-water mark, the block's
// free space, and a fresh <key, TID> entry in the primary and secondary
// indexes — the pre-HOT one-entry-per-version behaviour the live write path
// has. TIDs are never reused before a prune (which deletes the entry), so no
// duplicate guard is needed.
func (r *Relation) ApplyInsert(at simclock.Time, rec *wal.Record, keyOf func(payload []byte) int64) (simclock.Time, error) {
	_, payload, err := tuple.DecodeSI(rec.Data)
	if err != nil {
		return at, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.TID.Block+1 > r.nextBlock {
		r.nextBlock = rec.TID.Block + 1
	}
	t, err := r.refreshFreeLocked(at, rec.TID.Block)
	if err != nil {
		return t, err
	}
	r.stats.VersionsCreated++
	t, err = r.pk.Insert(t, keyOf(payload), packTID(rec.TID))
	if err != nil {
		return t, err
	}
	r.stats.IndexInserts++
	for i, sec := range r.secs {
		if sec == nil {
			continue
		}
		if k, ok := r.secFns[i](payload); ok {
			t, err = sec.Insert(t, k, packTID(rec.TID))
			if err != nil {
				return t, err
			}
			r.stats.IndexInserts++
		}
	}
	return t, nil
}

// ApplyPrune drops the index entries of a version the primary pruned or
// vacuumed (RecHeapDead for a single slot). It MUST run before the record's
// heap redo: redo marks the slot dead and compacts the page, destroying the
// payload the index keys are derived from. A slot that is already gone (the
// page reached the device with the prune applied before a crash, so the
// idempotent redo will skip it too) is a no-op.
func (r *Relation) ApplyPrune(at simclock.Time, tid page.TID, keyOf func(payload []byte) int64) (simclock.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, t, err := r.getPage(at, tid.Block, false)
	if err != nil {
		return t, err
	}
	var payload []byte
	f.RLock()
	if int(tid.Slot) < f.Data.NumSlots() && !f.Data.Dead(int(tid.Slot)) {
		if raw, terr := f.Data.Tuple(int(tid.Slot)); terr == nil {
			if _, p, derr := tuple.DecodeSI(raw); derr == nil {
				payload = append([]byte(nil), p...)
			}
		}
	}
	f.RUnlock()
	r.pool.Release(f, false)
	if payload == nil {
		return t, nil
	}
	t, err = r.pk.Delete(t, keyOf(payload), packTID(tid))
	if err != nil && !errors.Is(err, index.ErrNotFound) {
		return t, err
	}
	for i, sec := range r.secs {
		if sec == nil {
			continue
		}
		if k, ok := r.secFns[i](payload); ok {
			t, err = sec.Delete(t, k, packTID(tid))
			if err != nil && !errors.Is(err, index.ErrNotFound) {
				return t, err
			}
		}
	}
	r.stats.VacuumedTuples++
	return t, nil
}

// ApplyFreeSpace re-reads a block's free space into the FSM after a
// replicated redo changed the page in place (prune compaction, in-place
// invalidation rewrites keep the size so only dead records need this).
func (r *Relation) ApplyFreeSpace(at simclock.Time, block uint32) (simclock.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refreshFreeLocked(at, block)
}
