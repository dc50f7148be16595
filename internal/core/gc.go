package core

import (
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// GC implements the paper's space reclamation (Section 6): it (i) finds
// victim pages, (ii) re-inserts live tuple versions, and (iii) discards dead
// versions of those pages — a deterministic process driven by the DBMS, not
// the device.
//
// Deadness: a version is dead once a successor committed below the
// transaction horizon (every active and future snapshot sees the successor
// or something newer). Because a chain is ordered newest-to-oldest by
// creation timestamp, dead versions always form a chain *suffix*, so no
// visibility walk ever traverses one — reclaiming them cannot strand a
// reachable pointer.
//
// Victim policy: a sealed page is a victim when its dead fraction reaches
// the configured threshold and every live version on it is an entrypoint
// (per the VIDmap). Live entrypoints are re-appended — with their back
// pointer cleared when it leads into the dead suffix — and the VIDmap is
// swung via CAS under the item's transaction lock so concurrent updaters
// are never raced. Pages whose live versions include mid-chain versions are
// skipped; they become collectible as their chains age past the horizon.
func (r *Relation) GC(at simclock.Time, horizon txn.ID) (reclaimed int, _ simclock.Time, err error) {
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	r.PromoteDead(horizon)

	// Victims in ascending block order: a round relocates the same way every
	// time and reads its victims in device order.
	r.mu.Lock()
	var victims []uint32
	for b, set := range r.deadByBlock {
		block := uint32(b)
		if set.n == 0 || (r.appendOpen && block == r.appendBlock) {
			continue
		}
		total := r.tupleCount[block]
		if total == 0 {
			continue
		}
		if float64(set.n) >= gcDeadFraction*float64(total) {
			victims = append(victims, block)
		}
	}
	r.mu.Unlock()

	t := at
	for _, block := range victims {
		var ok bool
		ok, t, err = r.collectPage(t, block, horizon)
		if err != nil {
			return reclaimed, t, err
		}
		if ok {
			reclaimed++
		}
	}
	return reclaimed, t, nil
}

// PromoteDead moves pendingDead entries whose superseding transaction
// passed the horizon into the dead set. GC starts with it; a replica never
// collects, so its refresh path calls it to keep the queue the replicated
// commits grow from growing without bound between promotions.
func (r *Relation) PromoteDead(horizon txn.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keep := r.pendingDead[:0]
	for _, pd := range r.pendingDead {
		if pd.by < horizon {
			r.markDeadLocked(pd.pred)
		} else {
			keep = append(keep, pd)
		}
	}
	r.pendingDead = keep
}

// liveVer is a live version collectPage relocates off its victim page.
type liveVer struct {
	tid     page.TID
	hdr     tuple.SIASHeader
	payload []byte
}

// collectPage attempts to reclaim one block. Returns ok=false when the page
// is not collectible this round (mid-chain live versions or locked items).
func (r *Relation) collectPage(at simclock.Time, block uint32, horizon txn.ID) (bool, simclock.Time, error) {
	f, t, err := r.getPage(at, block, false)
	if err != nil {
		return false, t, err
	}
	live, buf := r.gcLive[:0], r.gcBuf[:0]
	defer func() {
		clear(live)
		r.gcLive, r.gcBuf = live[:0], buf[:0]
	}()
	collectible := true
	discarded := 0
	// Hold r.mu across the page scan (it guards the dead set read in the
	// callback) plus the frame's shared latch for the content bytes:
	// sealed victim pages are immutable, but the latch keeps the read
	// race-free against the pool's write-back machinery.
	r.mu.Lock()
	f.RLock()
	f.Data.LiveTuples(func(slot int, raw []byte) bool {
		tid := page.TID{Block: block, Slot: uint16(slot)}
		if r.isDeadLocked(tid) {
			discarded++
			return true
		}
		hdr, payload, derr := tuple.DecodeSIAS(raw)
		if derr != nil {
			collectible = false
			return false
		}
		// Only entrypoints are relocatable; a live mid-chain version pins
		// the page (its successor's *ptr cannot be patched out of place).
		if cur, ok := r.vmap.Get(hdr.VID); !ok || cur != tid {
			collectible = false
			return false
		}
		// An entrypoint above the horizon may still gain readers of its
		// predecessors; relocating it is fine, but only when its back
		// pointer does not lead into this page's own live space. Simpler
		// and safe: require the predecessor to be dead or absent before
		// clearing it; otherwise keep the pointer as is.
		start := len(buf)
		buf = append(buf, payload...)
		live = append(live, liveVer{tid, hdr, buf[start:len(buf):len(buf)]})
		return true
	})
	f.RUnlock()
	r.mu.Unlock()
	r.pool.Release(f, false)
	if !collectible {
		return false, t, nil
	}

	// Lock every live item (skip the page if any is busy), then re-append.
	gcTx := r.txm.Begin()
	defer r.txm.Abort(gcTx)
	for _, lv := range live {
		if !r.txm.Locks().TryAcquire(gcTx, txn.LockKey{Rel: r.id, Item: lv.hdr.VID}) {
			return false, t, nil
		}
	}
	for _, lv := range live {
		newHdr := lv.hdr
		r.mu.Lock()
		predDead := newHdr.Pred.Valid() && (r.isDeadLocked(newHdr.Pred) || newHdr.Pred.Block == block)
		r.mu.Unlock()
		if newHdr.Create < horizon || predDead {
			// No active snapshot needs anything older; cut the chain.
			newHdr.Pred = page.InvalidTID
		}
		r.mu.Lock()
		newTID, t2, aerr := r.append(gcTx.ID, t, newHdr, lv.payload)
		r.mu.Unlock()
		t = t2
		if aerr != nil {
			return false, t, aerr
		}
		// Relocation preserves the original version (its Create field is
		// the original committed transaction), so visibility is unchanged.
		if !r.vmap.CompareAndSwap(lv.hdr.VID, lv.tid, newTID) {
			// Lost a race we thought the lock prevented; be conservative.
			return false, t, nil
		}
		r.stats.gcRelocations.Add(1)
	}

	// The block is now free: every version on it is dead or relocated.
	r.mu.Lock()
	r.forgetDeadLocked(block)
	r.tupleCount[block] = 0
	r.freeBlocks = append(r.freeBlocks, block)
	r.stats.gcPages.Add(1)
	r.stats.gcDiscarded.Add(int64(discarded))
	r.mu.Unlock()

	// Log the reclamation so redo does not resurrect stale tuples into a
	// reused block: a fresh page image will be appended when the block is
	// reused; recovery's VIDmap rebuild ignores non-entrypoint duplicates.
	r.walw.Append(&wal.Record{Type: wal.RecHeapDead, Rel: r.id, TID: page.TID{Block: block, Slot: ^uint16(0)}})
	return true, t, nil
}
