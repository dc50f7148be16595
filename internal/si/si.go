// Package si implements the baseline storage engine: classical Snapshot
// Isolation with in-place invalidation, as in the unmodified PostgreSQL the
// paper compares against.
//
// Every tuple version carries xmin (creating transaction) and xmax
// (invalidating transaction). An update (a) writes the new version to *any*
// page with enough free space — scattering writes across the relation — and
// (b) sets xmax and the forward ctid link on the old version *in place*,
// which dirties the old version's page. Both effects produce the random
// write pattern of Figure 4 and the write volume of Table 1's SI column.
//
// The primary index stores <key, TID> records and, as in pre-HOT PostgreSQL,
// every new version gets a fresh index entry even when the key is unchanged.
// Vacuum reclaims versions invalidated before the transaction horizon.
package si

import (
	"errors"
	"fmt"
	"sync"

	"sias/internal/buffer"
	"sias/internal/index"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Stats counts engine-level events.
type Stats struct {
	VersionsCreated int64
	InPlaceUpdates  int64 // xmax/ctid invalidations written into existing pages
	IndexInserts    int64
	VacuumedTuples  int64
}

// Relation is one SI-managed table: a heap and its indexes, which map keys
// to TIDs.
type Relation struct {
	*index.Set

	id    uint32
	name  string
	pool  *buffer.Pool
	alloc *space.Allocator
	walw  *wal.Writer
	txm   *txn.Manager
	keyOf func(payload []byte) int64

	// mu is a reader/writer lock: Get/Scan/RangeByKey/RangeBySecondary take
	// it shared (page bytes they touch are additionally bracketed by frame
	// latches), while every mutating path — Insert, Update, Delete, Vacuum,
	// recovery — takes it exclusively, so the FSM, stats and in-place
	// xmax/ctid rewrites never race with readers.
	mu        sync.RWMutex
	nextBlock uint32
	// fsm tracks free bytes per block; fsmHint is the lowest block that
	// might still fit a typical tuple, advanced as blocks fill and reset
	// when vacuum frees space.
	fsm     freeSpace
	fsmHint uint32
	stats   Stats
}

// Config wires a Relation to its substrates.
type Config struct {
	ID    uint32
	Name  string
	Pool  *buffer.Pool
	Alloc *space.Allocator
	WAL   *wal.Writer
	Txns  *txn.Manager
	// PKRelID is the relation id for the primary index's pages.
	PKRelID uint32
	// KeyOf recovers the primary key of a stored payload, for vacuum's
	// pruning of the primary index.
	KeyOf func(payload []byte) int64
}

// New creates an empty SI relation with its primary index.
func New(at simclock.Time, cfg Config) (*Relation, simclock.Time, error) {
	ix, t, err := index.NewSet(at, cfg.PKRelID, cfg.Pool, cfg.Alloc)
	if err != nil {
		return nil, t, err
	}
	return &Relation{
		Set:   ix,
		id:    cfg.ID,
		name:  cfg.Name,
		pool:  cfg.Pool,
		alloc: cfg.Alloc,
		walw:  cfg.WAL,
		txm:   cfg.Txns,
		keyOf: cfg.KeyOf,
	}, t, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ID returns the heap relation id.
func (r *Relation) ID() uint32 { return r.id }

// Stats returns a snapshot of counters.
func (r *Relation) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// Blocks reports the number of heap blocks allocated.
func (r *Relation) Blocks() uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nextBlock
}

func packTID(t page.TID) uint64   { return uint64(t.Block)<<16 | uint64(t.Slot) }
func unpackTID(v uint64) page.TID { return page.TID{Block: uint32(v >> 16), Slot: uint16(v)} }

// getPage pins the heap page for block, formatting it on first use.
func (r *Relation) getPage(at simclock.Time, block uint32, initNew bool) (*buffer.Frame, simclock.Time, error) {
	dev, err := r.alloc.DevicePage(r.id, block)
	if err != nil {
		return nil, at, err
	}
	f, t, err := r.pool.Get(at, dev, initNew)
	if err != nil {
		return nil, t, err
	}
	if initNew {
		f.Lock()
		f.Data.Init(r.id, 0)
		f.Unlock()
		return f, t, nil
	}
	// Double-checked format: concurrent shared-lock readers may both find a
	// stale frame unformatted; only one may write the header.
	f.RLock()
	inited := f.Data.Initialized()
	f.RUnlock()
	if !inited {
		f.Lock()
		if !f.Data.Initialized() {
			f.Data.Init(r.id, 0)
		}
		f.Unlock()
	}
	return f, t, nil
}

// setFree records the free space of a block in the FSM. Caller holds r.mu.
func (r *Relation) setFree(b uint32, free int) {
	r.fsm.set(int(b), free)
	if free > 0 && b < r.fsmHint {
		r.fsmHint = b
	}
}

// placeVersion writes the version hdr, payload onto the lowest-numbered page
// with enough space ("any page that contains enough free space"), extending
// the heap if none fits. Returns the TID. Caller holds r.mu.
//
// The version is encoded straight into its reserved slot and logged from
// there under the exclusive frame latch, as core.Relation.append does, so
// it is copied once, into the page.
func (r *Relation) placeVersion(tx *txn.Tx, at simclock.Time, hdr tuple.SIHeader, payload []byte) (page.TID, simclock.Time, error) {
	size := tuple.SIHeaderSize + len(payload)
	need := size + 8 // line pointer + slack
	// First fit from the hint, lowest block first => scattered placement
	// into vacuumed pages, as in the real system.
	t := at
	for attempt := 0; attempt < 3; attempt++ {
		b, found, hint := r.fsm.firstFit(r.fsmHint, r.nextBlock, need)
		r.fsmHint = hint
		isNew := false
		if !found {
			b = r.nextBlock
			isNew = true
		}
		f, t2, err := r.getPage(t, b, isNew)
		t = t2
		if err != nil {
			return page.InvalidTID, t, err
		}
		f.Lock()
		slot, dst, rerr := f.Data.Reserve(size)
		if rerr != nil {
			// Stale FSM entry: refresh and retry.
			r.setFree(b, f.Data.FreeSpace())
			f.Unlock()
			r.pool.Release(f, false)
			if !errors.Is(rerr, page.ErrPageFull) {
				return page.InvalidTID, t, fmt.Errorf("si: place version in block %d: %w", b, rerr)
			}
			if isNew {
				return page.InvalidTID, t, fmt.Errorf("si: tuple of %d bytes does not fit an empty page", size)
			}
			continue
		}
		tuple.PutSI(dst, hdr, payload)
		if isNew {
			r.nextBlock++
		}
		tid := page.TID{Block: b, Slot: uint16(slot)}
		lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapInsert, Tx: tx.ID, Rel: r.id, TID: tid, Data: dst})
		f.Data.SetLSN(uint64(lsn))
		r.setFree(b, f.Data.FreeSpace())
		f.Unlock()
		r.pool.Release(f, true)
		r.stats.VersionsCreated++
		return tid, t, nil
	}
	return page.InvalidTID, t, fmt.Errorf("si: no space found after retries")
}

// fetch reads the header of the version at tid and asks keep, under the
// shared frame latch, whether the caller hands the version out: only then is
// its payload copied out of the page, appended to buf[:0], and kept true.
// That copy is the only one the read makes.
func (r *Relation) fetch(at simclock.Time, tid page.TID, buf []byte, keep func(tuple.SIHeader) bool) (hdr tuple.SIHeader, payload []byte, kept bool, t simclock.Time, err error) {
	f, t, err := r.getPage(at, tid.Block, false)
	if err != nil {
		return tuple.SIHeader{}, nil, false, t, err
	}
	f.RLock()
	raw, terr := f.Data.Tuple(int(tid.Slot))
	if terr != nil {
		f.RUnlock()
		r.pool.Release(f, false)
		return tuple.SIHeader{}, nil, false, t, fmt.Errorf("si: fetch %v: %w", tid, terr)
	}
	hdr, rawPayload, derr := tuple.DecodeSI(raw)
	if derr != nil {
		f.RUnlock()
		r.pool.Release(f, false)
		return tuple.SIHeader{}, nil, false, t, derr
	}
	if kept = keep(hdr); kept {
		payload = append(buf[:0], rawPayload...)
	}
	f.RUnlock()
	r.pool.Release(f, false)
	return hdr, payload, kept, t, nil
}

// visible implements standard SI visibility: the version's creator must be
// visible and its invalidator (if any) must not be.
func (r *Relation) visible(tx *txn.Tx, hdr tuple.SIHeader) bool {
	if !tx.Visible(hdr.Xmin) {
		return false
	}
	if hdr.Xmax != txn.InvalidID && tx.Visible(hdr.Xmax) {
		return false
	}
	return true
}

// pruned reports whether a fetch failed because vacuum or pruning removed
// the slot: the index entry naming it is cleaned up lazily, so readers pass
// over it. Any other failure — a device read, a header that does not decode
// — is the read's error.
func pruned(err error) bool {
	return errors.Is(err, page.ErrDeadSlot) || errors.Is(err, page.ErrBadSlot)
}

// pointTIDs sizes the TID buffer of a key-level read or update: the primary
// index holds one entry per version not yet pruned or vacuumed.
const pointTIDs = 8

// newestLive finds the chain head for key: the committed (or own) version
// with no effective invalidator. Returns ok=false if the key has no live
// version. Caller holds r.mu and the item lock.
//
// While walking the candidates it opportunistically prunes versions that are
// dead to every active snapshot — marking their slots dead and dropping
// their index entries — mirroring PostgreSQL's HOT/page pruning: without it
// hot keys accumulate thousands of dead candidates between vacuum runs and
// every update degenerates to a linear pass over them.
func (r *Relation) newestLive(tx *txn.Tx, at simclock.Time, key int64) (page.TID, tuple.SIHeader, []byte, simclock.Time, bool, error) {
	var buf [pointTIDs]uint64
	cands, t, err := r.PK.SearchAppend(at, key, buf[:0])
	if err != nil {
		return page.InvalidTID, tuple.SIHeader{}, nil, t, false, err
	}
	horizon := r.txm.Horizon()
	clog := r.txm.CLOG()
	var bestTID page.TID
	var bestHdr tuple.SIHeader
	var bestPayload []byte
	found := false
	var pbuf [pointTIDs]page.TID
	prunable := pbuf[:0]
	for _, c := range cands {
		tid := unpackTID(c)
		// A candidate's payload is copied only while it is the best so far,
		// into the buffer of the best it replaces.
		prune := false
		hdr, payload, best, t2, err := r.fetch(t, tid, bestPayload, func(h tuple.SIHeader) bool {
			st := clog.Get(h.Xmin)
			switch {
			case st == txn.StatusAborted:
				prune = true
				return false
			case st == txn.StatusInProgress && h.Xmin != tx.ID:
				return false // uncommitted foreign insert: not a chain head candidate
			case h.Xmax != txn.InvalidID && clog.Get(h.Xmax) == txn.StatusCommitted:
				prune = h.Xmax < horizon
				return false
			case h.Xmax == tx.ID:
				return false // already superseded within this transaction
			}
			return !found || h.Xmin > bestHdr.Xmin
		})
		t = t2
		if pruned(err) {
			continue
		}
		if err != nil {
			return page.InvalidTID, tuple.SIHeader{}, nil, t, false, err
		}
		if prune {
			prunable = append(prunable, tid)
		}
		if best {
			bestTID, bestHdr, bestPayload, found = tid, hdr, payload, true
		}
	}
	for _, tid := range prunable {
		var perr error
		t, perr = r.pruneVersion(t, key, tid)
		if perr != nil {
			return page.InvalidTID, tuple.SIHeader{}, nil, t, false, perr
		}
	}
	return bestTID, bestHdr, bestPayload, t, found, nil
}

// pruneVersion removes one dead version: slot marked dead, page compacted,
// index entry dropped. Caller holds r.mu.
func (r *Relation) pruneVersion(at simclock.Time, key int64, tid page.TID) (simclock.Time, error) {
	f, t, err := r.getPage(at, tid.Block, false)
	if err != nil {
		return t, err
	}
	secs := r.Secondaries()
	var secPayload []byte
	f.Lock()
	if len(secs) > 0 {
		if raw, terr := f.Data.Tuple(int(tid.Slot)); terr == nil {
			if _, payload, derr := tuple.DecodeSI(raw); derr == nil {
				secPayload = append([]byte(nil), payload...)
			}
		}
	}
	if derr := f.Data.MarkDead(int(tid.Slot)); derr != nil {
		f.Unlock()
		r.pool.Release(f, false)
		return t, nil // already gone
	}
	lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapDead, Rel: r.id, TID: tid})
	f.Data.SetLSN(uint64(lsn))
	f.Data.Compact()
	r.setFree(tid.Block, f.Data.FreeSpace())
	f.Unlock()
	r.pool.Release(f, true)
	if secPayload == nil {
		secs = nil
	}
	if t, err = r.unindexVersion(t, secs, key, tid, secPayload); err != nil {
		return t, err
	}
	r.stats.VacuumedTuples++
	return t, nil
}

// indexVersion inserts the entries of the version at tid: <key, TID> into the
// primary index and, pre-HOT, one into every live secondary index that
// indexes payload. Caller holds r.mu.
func (r *Relation) indexVersion(at simclock.Time, key int64, tid page.TID, payload []byte) (simclock.Time, error) {
	t, err := r.PK.Insert(at, key, packTID(tid))
	if err != nil {
		return t, err
	}
	r.stats.IndexInserts++
	for _, sec := range r.Secondaries() {
		if sec.Tree == nil {
			continue
		}
		if k, ok := sec.Key(payload); ok {
			if t, err = sec.Tree.Insert(t, k, packTID(tid)); err != nil {
				return t, err
			}
			r.stats.IndexInserts++
		}
	}
	return t, nil
}

// unindexVersion drops the entries of the removed version at tid: its
// <key, TID> from the primary index and its entries from secs, read off
// payload. Entries already gone are no error.
func (r *Relation) unindexVersion(at simclock.Time, secs []index.Secondary, key int64, tid page.TID, payload []byte) (simclock.Time, error) {
	t, err := r.PK.Delete(at, key, packTID(tid))
	if err != nil && !errors.Is(err, index.ErrNotFound) {
		return t, err
	}
	for _, sec := range secs {
		if sec.Tree == nil {
			continue
		}
		if k, ok := sec.Key(payload); ok {
			t, err = sec.Tree.Delete(t, k, packTID(tid))
			if err != nil && !errors.Is(err, index.ErrNotFound) {
				return t, err
			}
		}
	}
	return t, nil
}

// Insert stores a new data item under key.
func (r *Relation) Insert(tx *txn.Tx, at simclock.Time, key int64, payload []byte) (simclock.Time, error) {
	tx.MarkWrote()
	r.mu.Lock()
	defer r.mu.Unlock()
	tid, t, err := r.placeVersion(tx, at, tuple.SIHeader{Xmin: tx.ID, CTID: page.InvalidTID}, payload)
	if err != nil {
		return t, err
	}
	return r.indexVersion(t, key, tid, payload)
}

// Get hands fn the version of key visible to tx, with its TID; an error
// from fn is returned. The callbacks of Get, Update and Delete have the
// shape of core.Relation's (vid is 0: SI names a version by its place).
func (r *Relation) Get(tx *txn.Tx, at simclock.Time, key int64, fn func(vid uint64, tid page.TID, payload []byte) error) (simclock.Time, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var buf [pointTIDs]uint64
	cands, t, err := r.PK.SearchAppend(at, key, buf[:0])
	if err != nil {
		return t, err
	}
	for _, c := range cands {
		tid := unpackTID(c)
		_, payload, visible, t2, err := r.fetch(t, tid, nil, func(h tuple.SIHeader) bool { return r.visible(tx, h) })
		t = t2
		if pruned(err) {
			continue
		}
		if err != nil {
			return t, err
		}
		if visible {
			return t, fn(0, tid, payload)
		}
	}
	return t, index.ErrNoRow
}

// Update applies mutate to the current version of key, producing a successor
// version; first-updater-wins via the item transaction lock. mutate gets the
// current version as Get's fn does and returns the new payload and the
// (possibly changed) index key.
func (r *Relation) Update(tx *txn.Tx, at simclock.Time, key int64, mutate func(vid uint64, tid page.TID, old []byte) ([]byte, int64, error)) (simclock.Time, error) {
	oldTID, oldPayload, t, err := r.lockHead(tx, at, key)
	if err != nil {
		return t, err
	}
	defer r.mu.Unlock()
	newPayload, newKey, err := mutate(0, oldTID, oldPayload)
	if err != nil {
		return t, err
	}

	// (a) place the successor version out of place,
	newTID, t, err := r.placeVersion(tx, t, tuple.SIHeader{Xmin: tx.ID, CTID: page.InvalidTID}, newPayload)
	if err != nil {
		return t, err
	}
	// (b) invalidate the predecessor IN PLACE: the small random write SIAS
	// eliminates.
	t, err = r.invalidateInPlace(tx, t, oldTID, tx.ID, newTID)
	if err != nil {
		return t, err
	}
	// (c) new index entries for the new version.
	return r.indexVersion(t, newKey, newTID, newPayload)
}

// Delete invalidates the current version of key in place (no tombstone
// version is created under SI). check sees the version first, as Get's fn
// does; an error from it returns before anything is written.
func (r *Relation) Delete(tx *txn.Tx, at simclock.Time, key int64, check func(vid uint64, tid page.TID, old []byte) error) (simclock.Time, error) {
	tid, payload, t, err := r.lockHead(tx, at, key)
	if err != nil {
		return t, err
	}
	defer r.mu.Unlock()
	if err := check(0, tid, payload); err != nil {
		return t, err
	}
	return r.invalidateInPlace(tx, t, tid, tx.ID, page.InvalidTID)
}

// lockHead takes key's item lock for tx, then r.mu, and returns the chain
// head, which must be visible to tx: a concurrent transaction that committed
// a successor tx cannot see won the update race (first-updater-wins). r.mu
// stays held iff the error is nil.
func (r *Relation) lockHead(tx *txn.Tx, at simclock.Time, key int64) (page.TID, []byte, simclock.Time, error) {
	tx.MarkWrote()
	lk := txn.LockKey{Rel: r.id, Item: uint64(key)}
	if err := r.txm.Locks().Acquire(tx, lk); err != nil {
		return page.InvalidTID, nil, at, err
	}
	r.mu.Lock()
	tid, hdr, payload, t, found, err := r.newestLive(tx, at, key)
	switch {
	case err != nil:
	case !found:
		err = index.ErrNoRow
	case !r.visible(tx, hdr):
		err = txn.ErrSerialization
	default:
		return tid, payload, t, nil
	}
	r.mu.Unlock()
	return page.InvalidTID, nil, t, err
}

// invalidateInPlace rewrites the version's xmax/ctid on its page.
func (r *Relation) invalidateInPlace(tx *txn.Tx, at simclock.Time, tid page.TID, xmax txn.ID, ctid page.TID) (simclock.Time, error) {
	f, t, err := r.getPage(at, tid.Block, false)
	if err != nil {
		return t, err
	}
	f.Lock()
	raw, terr := f.Data.Tuple(int(tid.Slot))
	if terr != nil {
		f.Unlock()
		r.pool.Release(f, false)
		return t, fmt.Errorf("si: invalidate %v: %w", tid, terr)
	}
	if err := tuple.SetSIXmax(raw, xmax); err != nil {
		f.Unlock()
		r.pool.Release(f, false)
		return t, err
	}
	if err := tuple.SetSICTID(raw, ctid); err != nil {
		f.Unlock()
		r.pool.Release(f, false)
		return t, err
	}
	// The record aliases the slot under the exclusive latch; Append copies it.
	lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapOverwrite, Tx: tx.ID, Rel: r.id, TID: tid, Data: raw})
	f.Data.SetLSN(uint64(lsn))
	f.Unlock()
	r.pool.Release(f, true)
	r.stats.InPlaceUpdates++
	return t, nil
}

// Scan performs the traditional full-relation scan: read every block, check
// every tuple version individually (the HDD-era access path the paper
// contrasts with the VIDmap scan). A version whose header does not decode
// stops the scan with the decoder's error.
func (r *Relation) Scan(tx *txn.Tx, at simclock.Time, fn func(vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	r.mu.RLock()
	blocks := r.nextBlock
	r.mu.RUnlock()
	t := at
	for b := uint32(0); b < blocks; b++ {
		r.mu.RLock()
		f, t2, err := r.getPage(t, b, false)
		if err != nil {
			r.mu.RUnlock()
			return t2, err
		}
		type hit struct {
			tid     page.TID
			payload []byte
		}
		var hits []hit
		var bad error
		f.RLock()
		f.Data.LiveTuples(func(slot int, raw []byte) bool {
			hdr, payload, err := tuple.DecodeSI(raw)
			if err != nil {
				bad = fmt.Errorf("si: scan %v: %w", page.TID{Block: b, Slot: uint16(slot)}, err)
				return false
			}
			if r.visible(tx, hdr) {
				hits = append(hits, hit{page.TID{Block: b, Slot: uint16(slot)}, append([]byte(nil), payload...)})
			}
			return true
		})
		f.RUnlock()
		r.pool.Release(f, false)
		r.mu.RUnlock()
		t = t2
		for _, h := range hits {
			if !fn(0, h.tid, h.payload) {
				return t, nil
			}
		}
		if bad != nil {
			return t, bad
		}
	}
	return t, nil
}

// ParallelScan is Scan: the traditional relation scan runs sequentially,
// which is what the paper contrasts with the parallelizable VIDmap access
// path of core.Relation.ParallelScan.
func (r *Relation) ParallelScan(tx *txn.Tx, at simclock.Time, _ int, fn func(vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	return r.Scan(tx, at, fn)
}

// RangeByKey returns visible rows with lo <= key <= hi in key order via the
// primary index.
func (r *Relation) RangeByKey(tx *txn.Tx, at simclock.Time, lo, hi int64, fn func(key int64, vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rangeIndexLocked(tx, at, r.PK, lo, hi, fn)
}

// RangeBySecondary returns visible rows with lo <= secondary key <= hi in
// index-key order; a point lookup is the range lo == hi. SI indexes every
// version, so multiple entries can resolve to the same visible row under
// different keys; callers re-check predicates against the decoded row.
func (r *Relation) RangeBySecondary(tx *txn.Tx, at simclock.Time, idx int, lo, hi int64, fn func(indexKey int64, vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tree, err := r.Probe(idx)
	if err != nil {
		return at, err
	}
	return r.rangeIndexLocked(tx, at, tree, lo, hi, fn)
}

// rangeIndexLocked collects tree's <key, TID> entries in [lo, hi] and hands
// fn each one whose version is visible to tx, in entry order. Caller holds
// r.mu (shared).
func (r *Relation) rangeIndexLocked(tx *txn.Tx, at simclock.Time, tree *index.Tree, lo, hi int64, fn func(key int64, vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	type ent struct {
		key int64
		tid page.TID
	}
	var ents []ent
	t, err := tree.Range(at, lo, hi, func(k int64, v uint64) bool {
		ents = append(ents, ent{k, unpackTID(v)})
		return true
	})
	if err != nil {
		return t, err
	}
	visible := func(h tuple.SIHeader) bool { return r.visible(tx, h) }
	for _, e := range ents {
		_, payload, kept, t2, ferr := r.fetch(t, e.tid, nil, visible)
		t = t2
		if pruned(ferr) {
			continue
		}
		if ferr != nil {
			return t, ferr
		}
		if !kept {
			continue
		}
		if !fn(e.key, 0, e.tid, payload) {
			return t, nil
		}
	}
	return t, nil
}

// Vacuum reclaims versions invalidated before horizon and versions created
// by aborted transactions, marking slots dead, compacting pages and pruning
// index entries (the primary key of a dead payload comes from the
// configured KeyOf).
func (r *Relation) Vacuum(at simclock.Time, horizon txn.ID) (int, simclock.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	clog := r.txm.CLOG()
	secs := r.Secondaries()
	reclaimed := 0
	t := at
	type victim struct {
		slot    int
		key     int64
		tid     page.TID
		payload []byte // a copy, for the secondary keys; nil without secondaries
	}
	var victims []victim
	for b := uint32(0); b < r.nextBlock; b++ {
		f, t2, err := r.getPage(t, b, false)
		t = t2
		if err != nil {
			return reclaimed, t, err
		}
		victims = victims[:0]
		f.RLock()
		f.Data.LiveTuples(func(slot int, raw []byte) bool {
			hdr, payload, err := tuple.DecodeSI(raw)
			if err != nil {
				return true
			}
			deadByUpdate := hdr.Xmax != txn.InvalidID && clog.Get(hdr.Xmax) == txn.StatusCommitted && hdr.Xmax < horizon
			abortedInsert := clog.Get(hdr.Xmin) == txn.StatusAborted
			if deadByUpdate || abortedInsert {
				var secPayload []byte
				if len(secs) > 0 {
					secPayload = append([]byte(nil), payload...)
				}
				victims = append(victims, victim{slot, r.keyOf(payload), page.TID{Block: b, Slot: uint16(slot)}, secPayload})
			}
			return true
		})
		f.RUnlock()
		if len(victims) == 0 {
			r.pool.Release(f, false)
			continue
		}
		f.Lock()
		for _, v := range victims {
			if err := f.Data.MarkDead(v.slot); err != nil {
				f.Unlock()
				r.pool.Release(f, false)
				return reclaimed, t, err
			}
			lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapDead, Rel: r.id, TID: v.tid})
			f.Data.SetLSN(uint64(lsn))
			reclaimed++
		}
		f.Data.Compact()
		r.setFree(b, f.Data.FreeSpace())
		if b < r.fsmHint {
			r.fsmHint = b
		}
		f.Unlock()
		r.pool.Release(f, true)
		r.stats.VacuumedTuples += int64(len(victims))
		// Prune index entries outside the page latch.
		for _, v := range victims {
			if t, err = r.unindexVersion(t, secs, v.key, v.tid, v.payload); err != nil {
				return reclaimed, t, err
			}
		}
	}
	return reclaimed, t, nil
}
