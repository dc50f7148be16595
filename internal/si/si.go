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
	"sync/atomic"

	"sias/internal/buffer"
	"sias/internal/index"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// ErrNotFound is returned when no visible version exists for a key.
var ErrNotFound = errors.New("si: no visible tuple for key")

// SecondaryKey derives a secondary index key from a payload; ok=false means
// "do not index this row".
type SecondaryKey func(payload []byte) (int64, bool)

// Stats counts engine-level events.
type Stats struct {
	VersionsCreated int64
	InPlaceUpdates  int64 // xmax/ctid invalidations written into existing pages
	IndexInserts    int64
	IndexLookups    int64 // secondary-index point and range lookups
	VacuumedTuples  int64
}

// Relation is one SI-managed table: heap + primary index + secondaries.
type Relation struct {
	id    uint32
	name  string
	pool  *buffer.Pool
	alloc *space.Allocator
	walw  *wal.Writer
	txm   *txn.Manager

	pk     *index.Tree
	secs   []*index.Tree
	secFns []SecondaryKey

	// mu is a reader/writer lock: Get/Scan/RangeByKey/RangeBySecondary take
	// it shared (page bytes they touch are additionally bracketed by frame
	// latches), while every mutating path — Insert, Update, Delete, Vacuum,
	// recovery — takes it exclusively, so the FSM, stats and in-place
	// xmax/ctid rewrites never race with readers.
	mu        sync.RWMutex
	nextBlock uint32
	// fsm tracks free bytes per block (indexed by block number); fsmHint is
	// the lowest block that might still fit a typical tuple, advanced as
	// blocks fill and reset when vacuum frees space.
	fsm     []int
	fsmHint uint32
	stats   Stats

	// idxLookups is atomic, not mu-guarded: lookups run under the shared
	// lock, so concurrent readers may bump it simultaneously.
	idxLookups atomic.Int64
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
}

// New creates an empty SI relation with its primary index.
func New(at simclock.Time, cfg Config) (*Relation, simclock.Time, error) {
	pk, t, err := index.New(at, cfg.PKRelID, cfg.Pool, cfg.Alloc)
	if err != nil {
		return nil, t, err
	}
	return &Relation{
		id:    cfg.ID,
		name:  cfg.Name,
		pool:  cfg.Pool,
		alloc: cfg.Alloc,
		walw:  cfg.WAL,
		txm:   cfg.Txns,
		pk:    pk,
	}, t, nil
}

// AddSecondary attaches a secondary index (entries maintained on every new
// version, the pre-HOT PostgreSQL behaviour).
func (r *Relation) AddSecondary(at simclock.Time, relID uint32, fn SecondaryKey) (simclock.Time, error) {
	t, tm, err := index.New(at, relID, r.pool, r.alloc)
	if err != nil {
		return tm, err
	}
	r.mu.Lock()
	r.secs = append(r.secs, t)
	r.secFns = append(r.secFns, fn)
	r.mu.Unlock()
	return tm, nil
}

// SecondaryPageWrites reports how many pages secondary index idx has
// dirtied (0 when idx is out of range).
func (r *Relation) SecondaryPageWrites(idx int) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if idx < 0 || idx >= len(r.secs) {
		return 0
	}
	return r.secs[idx].PageWrites()
}

// PKEntries reports the primary index entry count (>= live rows: SI inserts
// a fresh entry per version; vacuum prunes them lazily).
func (r *Relation) PKEntries() int64 { return r.pk.Len() }

// SecondaryEntries sums entry counts across secondary indexes.
func (r *Relation) SecondaryEntries() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, sec := range r.secs {
		n += sec.Len()
	}
	return n
}

// SecondaryInserts sums cumulative insert counts across secondary indexes.
func (r *Relation) SecondaryInserts() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, sec := range r.secs {
		n += sec.Inserts()
	}
	return n
}

// SecondaryCount reports the number of secondary indexes.
func (r *Relation) SecondaryCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.secs)
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ID returns the heap relation id.
func (r *Relation) ID() uint32 { return r.id }

// Stats returns a snapshot of counters.
func (r *Relation) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.stats
	s.IndexLookups = r.idxLookups.Load()
	return s
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
	for int(b) >= len(r.fsm) {
		r.fsm = append(r.fsm, -1)
	}
	r.fsm[b] = free
	if free > 0 && b < r.fsmHint {
		r.fsmHint = b
	}
}

// placeVersion writes tupBytes onto the lowest-numbered page with enough
// space ("any page that contains enough free space"), extending the heap if
// none fits. Returns the TID. Caller holds r.mu.
func (r *Relation) placeVersion(tx *txn.Tx, at simclock.Time, tupBytes []byte) (page.TID, simclock.Time, error) {
	need := len(tupBytes) + 8 // line pointer + slack
	// First fit from the hint, lowest block first => scattered placement
	// into vacuumed pages, as in the real system.
	t := at
	for attempt := 0; attempt < 3; attempt++ {
		b := uint32(0)
		isNew := false
		found := false
		for cand := r.fsmHint; int(cand) < len(r.fsm) && cand < r.nextBlock; cand++ {
			if r.fsm[cand] >= need {
				b = cand
				found = true
				break
			}
			// Blocks below the first fit cannot satisfy typical tuples any
			// more only if they are truly tight; advance the hint past
			// near-full blocks to keep the scan amortized O(1).
			if r.fsm[cand] >= 0 && r.fsm[cand] < 64 && cand == r.fsmHint {
				r.fsmHint = cand + 1
			}
		}
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
		slot, ierr := f.Data.Insert(tupBytes)
		if ierr != nil {
			// Stale FSM entry: refresh and retry.
			r.setFree(b, f.Data.FreeSpace())
			f.Unlock()
			r.pool.Release(f, false)
			if isNew {
				return page.InvalidTID, t, fmt.Errorf("si: tuple of %d bytes does not fit an empty page", len(tupBytes))
			}
			continue
		}
		if isNew {
			r.nextBlock++
		}
		tid := page.TID{Block: b, Slot: uint16(slot)}
		lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapInsert, Tx: tx.ID, Rel: r.id, TID: tid, Data: tupBytes})
		f.Data.SetLSN(uint64(lsn))
		r.setFree(b, f.Data.FreeSpace())
		f.Unlock()
		r.pool.Release(f, true)
		r.stats.VersionsCreated++
		return tid, t, nil
	}
	return page.InvalidTID, t, fmt.Errorf("si: no space found after retries")
}

// fetch reads the version at tid, returning its header and a copy of the
// payload.
func (r *Relation) fetch(at simclock.Time, tid page.TID) (tuple.SIHeader, []byte, simclock.Time, error) {
	f, t, err := r.getPage(at, tid.Block, false)
	if err != nil {
		return tuple.SIHeader{}, nil, t, err
	}
	f.RLock()
	raw, terr := f.Data.Tuple(int(tid.Slot))
	if terr != nil {
		f.RUnlock()
		r.pool.Release(f, false)
		return tuple.SIHeader{}, nil, t, fmt.Errorf("si: fetch %v: %w", tid, terr)
	}
	hdr, payload, derr := tuple.DecodeSI(raw)
	if derr != nil {
		f.RUnlock()
		r.pool.Release(f, false)
		return tuple.SIHeader{}, nil, t, derr
	}
	out := append([]byte(nil), payload...)
	f.RUnlock()
	r.pool.Release(f, false)
	return hdr, out, t, nil
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
	cands, t, err := r.pk.Search(at, key)
	if err != nil {
		return page.InvalidTID, tuple.SIHeader{}, nil, t, false, err
	}
	horizon := r.txm.Horizon()
	var bestTID page.TID
	var bestHdr tuple.SIHeader
	var bestPayload []byte
	found := false
	var prunable []page.TID
	for _, c := range cands {
		tid := unpackTID(c)
		hdr, payload, t2, err := r.fetch(t, tid)
		t = t2
		if err != nil {
			continue // vacuumed entry; index cleanup is lazy
		}
		st := r.txm.CLOG().Get(hdr.Xmin)
		if st == txn.StatusAborted {
			prunable = append(prunable, tid)
			continue
		}
		if st == txn.StatusInProgress && hdr.Xmin != tx.ID {
			continue // uncommitted foreign insert: not a chain head candidate
		}
		dead := hdr.Xmax != txn.InvalidID && r.txm.CLOG().Get(hdr.Xmax) == txn.StatusCommitted
		if dead {
			if hdr.Xmax < horizon {
				prunable = append(prunable, tid)
			}
			continue
		}
		if hdr.Xmax == tx.ID {
			continue // already superseded within this transaction
		}
		if !found || hdr.Xmin > bestHdr.Xmin {
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
	var secPayload []byte
	f.Lock()
	if len(r.secs) > 0 {
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
	t, err = r.pk.Delete(t, key, packTID(tid))
	if err != nil && !errors.Is(err, index.ErrNotFound) {
		return t, err
	}
	for i, sec := range r.secs {
		if secPayload == nil {
			break
		}
		if k, ok := r.secFns[i](secPayload); ok {
			t, err = sec.Delete(t, k, packTID(tid))
			if err != nil && !errors.Is(err, index.ErrNotFound) {
				return t, err
			}
		}
	}
	r.stats.VacuumedTuples++
	return t, nil
}

// Insert stores a new data item under key.
func (r *Relation) Insert(tx *txn.Tx, at simclock.Time, key int64, payload []byte) (simclock.Time, error) {
	tx.MarkWrote()
	r.mu.Lock()
	defer r.mu.Unlock()
	tup := tuple.EncodeSI(tuple.SIHeader{Xmin: tx.ID, CTID: page.InvalidTID}, payload)
	tid, t, err := r.placeVersion(tx, at, tup)
	if err != nil {
		return t, err
	}
	t, err = r.pk.Insert(t, key, packTID(tid))
	if err != nil {
		return t, err
	}
	r.stats.IndexInserts++
	for i, sec := range r.secs {
		if k, ok := r.secFns[i](payload); ok {
			t, err = sec.Insert(t, k, packTID(tid))
			if err != nil {
				return t, err
			}
			r.stats.IndexInserts++
		}
	}
	return t, nil
}

// Get returns the payload of the version of key visible to tx, and where
// that version lies.
func (r *Relation) Get(tx *txn.Tx, at simclock.Time, key int64) ([]byte, page.TID, simclock.Time, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cands, t, err := r.pk.Search(at, key)
	if err != nil {
		return nil, page.InvalidTID, t, err
	}
	for _, c := range cands {
		tid := unpackTID(c)
		hdr, payload, t2, err := r.fetch(t, tid)
		t = t2
		if err != nil {
			continue
		}
		if r.visible(tx, hdr) {
			return payload, tid, t, nil
		}
	}
	return nil, page.InvalidTID, t, ErrNotFound
}

// Update applies mutate to the current version of key, producing a successor
// version; first-updater-wins via the item transaction lock. mutate gets the
// current version's place and payload and returns the new payload and the
// (possibly changed) index key.
func (r *Relation) Update(tx *txn.Tx, at simclock.Time, key int64, mutate func(tid page.TID, old []byte) ([]byte, int64, error)) (simclock.Time, error) {
	tx.MarkWrote()
	lk := txn.LockKey{Rel: r.id, Item: uint64(key)}
	if err := r.txm.Locks().Acquire(tx, lk); err != nil {
		return at, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	oldTID, oldHdr, oldPayload, t, found, err := r.newestLive(tx, at, key)
	if err != nil {
		return t, err
	}
	if !found {
		return t, ErrNotFound
	}
	// First-updater-wins: the chain head must be visible to us; if a
	// concurrent transaction committed a successor we cannot see, abort.
	if !r.visible(tx, oldHdr) {
		return t, txn.ErrSerialization
	}
	newPayload, newKey, err := mutate(oldTID, oldPayload)
	if err != nil {
		return t, err
	}

	// (a) place the successor version out of place,
	newTup := tuple.EncodeSI(tuple.SIHeader{Xmin: tx.ID, CTID: page.InvalidTID}, newPayload)
	newTID, t, err := r.placeVersion(tx, t, newTup)
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
	t, err = r.pk.Insert(t, newKey, packTID(newTID))
	if err != nil {
		return t, err
	}
	r.stats.IndexInserts++
	for i, sec := range r.secs {
		if k, ok := r.secFns[i](newPayload); ok {
			t, err = sec.Insert(t, k, packTID(newTID))
			if err != nil {
				return t, err
			}
			r.stats.IndexInserts++
		}
	}
	return t, nil
}

// Delete invalidates the current version of key in place (no tombstone
// version is created under SI).
func (r *Relation) Delete(tx *txn.Tx, at simclock.Time, key int64) (simclock.Time, error) {
	tx.MarkWrote()
	lk := txn.LockKey{Rel: r.id, Item: uint64(key)}
	if err := r.txm.Locks().Acquire(tx, lk); err != nil {
		return at, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tid, hdr, _, t, found, err := r.newestLive(tx, at, key)
	if err != nil {
		return t, err
	}
	if !found {
		return t, ErrNotFound
	}
	if !r.visible(tx, hdr) {
		return t, txn.ErrSerialization
	}
	return r.invalidateInPlace(tx, t, tid, tx.ID, page.InvalidTID)
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
	after := append([]byte(nil), raw...)
	lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapOverwrite, Tx: tx.ID, Rel: r.id, TID: tid, Data: after})
	f.Data.SetLSN(uint64(lsn))
	f.Unlock()
	r.pool.Release(f, true)
	r.stats.InPlaceUpdates++
	return t, nil
}

// Scan performs the traditional full-relation scan: read every block, check
// every tuple version individually (the HDD-era access path the paper
// contrasts with the VIDmap scan).
func (r *Relation) Scan(tx *txn.Tx, at simclock.Time, fn func(tid page.TID, payload []byte) bool) (simclock.Time, error) {
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
		f.RLock()
		f.Data.LiveTuples(func(slot int, raw []byte) bool {
			hdr, payload, err := tuple.DecodeSI(raw)
			if err != nil {
				return true
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
			if !fn(h.tid, h.payload) {
				return t, nil
			}
		}
	}
	return t, nil
}

// RangeByKey returns visible rows with lo <= key <= hi in key order via the
// primary index.
func (r *Relation) RangeByKey(tx *txn.Tx, at simclock.Time, lo, hi int64, fn func(key int64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rangeIndexLocked(tx, at, r.pk, lo, hi, fn)
}

// RangeBySecondary returns visible rows with lo <= secondary key <= hi in
// index-key order; a point lookup is the range lo == hi. SI indexes every
// version, so multiple entries can resolve to the same visible row under
// different keys; callers re-check predicates against the decoded row.
func (r *Relation) RangeBySecondary(tx *txn.Tx, at simclock.Time, idx int, lo, hi int64, fn func(indexKey int64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if idx < 0 || idx >= len(r.secs) {
		return at, fmt.Errorf("si: no secondary index %d", idx)
	}
	r.idxLookups.Add(1)
	return r.rangeIndexLocked(tx, at, r.secs[idx], lo, hi, fn)
}

// rangeIndexLocked collects tree's <key, TID> entries in [lo, hi] and hands
// fn each one whose version is visible to tx, in entry order. Caller holds
// r.mu (shared).
func (r *Relation) rangeIndexLocked(tx *txn.Tx, at simclock.Time, tree *index.Tree, lo, hi int64, fn func(key int64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
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
	for _, e := range ents {
		hdr, payload, t2, ferr := r.fetch(t, e.tid)
		t = t2
		if ferr != nil {
			continue // pruned entry
		}
		if !r.visible(tx, hdr) {
			continue
		}
		if !fn(e.key, e.tid, payload) {
			return t, nil
		}
	}
	return t, nil
}

// Vacuum reclaims versions invalidated before horizon and versions created
// by aborted transactions, marking slots dead, compacting pages and pruning
// index entries (given keyOf to recover the key of a dead payload).
func (r *Relation) Vacuum(at simclock.Time, horizon txn.ID, keyOf func(payload []byte) int64) (int, simclock.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	clog := r.txm.CLOG()
	reclaimed := 0
	t := at
	for b := uint32(0); b < r.nextBlock; b++ {
		f, t2, err := r.getPage(t, b, false)
		t = t2
		if err != nil {
			return reclaimed, t, err
		}
		type victim struct {
			slot    int
			key     int64
			tid     page.TID
			payload []byte
		}
		var victims []victim
		f.RLock()
		f.Data.LiveTuples(func(slot int, raw []byte) bool {
			hdr, payload, err := tuple.DecodeSI(raw)
			if err != nil {
				return true
			}
			deadByUpdate := hdr.Xmax != txn.InvalidID && clog.Get(hdr.Xmax) == txn.StatusCommitted && hdr.Xmax < horizon
			abortedInsert := clog.Get(hdr.Xmin) == txn.StatusAborted
			if deadByUpdate || abortedInsert {
				victims = append(victims, victim{slot, keyOf(payload), page.TID{Block: b, Slot: uint16(slot)}, append([]byte(nil), payload...)})
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
			t, err = r.pk.Delete(t, v.key, packTID(v.tid))
			if err != nil && !errors.Is(err, index.ErrNotFound) {
				return reclaimed, t, err
			}
			for i, sec := range r.secs {
				if k, ok := r.secFns[i](v.payload); ok {
					t, err = sec.Delete(t, k, packTID(v.tid))
					if err != nil && !errors.Is(err, index.ErrNotFound) {
						return reclaimed, t, err
					}
				}
			}
		}
	}
	return reclaimed, t, nil
}
