// Package core implements the paper's contribution: the SIAS-Chains storage
// engine (Snapshot Isolation Append Storage with singly-linked version
// chains).
//
// Data items are addressed as a whole through a virtual ID (VID). Each tuple
// version stores its creation timestamp, its VID and a physical back
// pointer (*ptr) to its predecessor; there is no invalidation timestamp —
// creating a successor implicitly invalidates the predecessor (Figure 1).
// The per-relation VIDmap points at the newest version, the *entrypoint*.
//
// All modifications are appends into the relation's current append page;
// the page reaches the device only when it fills up or the configured
// threshold (background-writer tick for t1, checkpoint for t2) seals it.
// Once sealed, a page is immutable until garbage collection reclaims it by
// re-inserting its live entrypoints and discarding dead versions.
package core

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
	"sias/internal/vidmap"
	"sias/internal/wal"
)

// Stats counts engine-level events, exposing the behaviours the paper
// argues about.
type Stats struct {
	Appends       int64 // tuple versions appended (every modification)
	PagesSealed   int64 // append pages sealed (full or threshold)
	SealedTuples  int64 // tuples on sealed pages (fill-degree numerator)
	Tombstones    int64
	ChainWalks    int64 // visibility chain traversals started
	ChainHops     int64 // predecessor fetches during walks
	IndexInserts  int64
	IndexLookups  int64 // secondary-index point and range lookups (index.Set)
	GCPages       int64 // append pages reclaimed
	GCRelocations int64 // live entrypoints re-appended by GC
	GCDiscarded   int64 // dead versions discarded by GC
	VMapMisses    int64 // VIDmap bucket residency misses
}

// relStats is the live, race-safe counter set behind Stats. The read path
// (chain walks, VIDmap touches) bumps these without taking r.mu, so the
// striped buffer pool's concurrency is not thrown away on bookkeeping.
type relStats struct {
	appends       atomic.Int64
	pagesSealed   atomic.Int64
	sealedTuples  atomic.Int64
	tombstones    atomic.Int64
	chainWalks    atomic.Int64
	chainHops     atomic.Int64
	indexInserts  atomic.Int64
	gcPages       atomic.Int64
	gcRelocations atomic.Int64
	gcDiscarded   atomic.Int64
	vmapMisses    atomic.Int64
}

func (s *relStats) snapshot() Stats {
	return Stats{
		Appends:       s.appends.Load(),
		PagesSealed:   s.pagesSealed.Load(),
		SealedTuples:  s.sealedTuples.Load(),
		Tombstones:    s.tombstones.Load(),
		ChainWalks:    s.chainWalks.Load(),
		ChainHops:     s.chainHops.Load(),
		IndexInserts:  s.indexInserts.Load(),
		GCPages:       s.gcPages.Load(),
		GCRelocations: s.gcRelocations.Load(),
		GCDiscarded:   s.gcDiscarded.Load(),
		VMapMisses:    s.vmapMisses.Load(),
	}
}

// AvgFill reports the mean fill degree of sealed pages in tuples/page.
func (s Stats) AvgFill() float64 {
	if s.PagesSealed == 0 {
		return 0
	}
	return float64(s.SealedTuples) / float64(s.PagesSealed)
}

const (
	// vmapMissPenalty is the virtual time charged for swapping in a
	// non-resident VIDmap bucket (one device page read).
	vmapMissPenalty = 100 * simclock.Microsecond
	// gcDeadFraction is the minimum dead fraction for a GC victim page.
	gcDeadFraction = 0.35
)

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
	// KeyOf recovers the primary key of a stored payload, for the rebuild
	// and replay of the primary index.
	KeyOf func(payload []byte) int64
	// VMapResidentBuckets bounds the in-memory VIDmap bucket set;
	// 0 keeps the whole map resident.
	VMapResidentBuckets int
	// Readahead is the scan readahead window in data items: scans stage the
	// entrypoint pages of the next Readahead VIDs into the buffer pool's
	// async prefetcher ahead of the cursor. 0 disables readahead.
	Readahead int
}

// Relation is one SIAS-managed table. Its indexes map keys to VIDs.
type Relation struct {
	*index.Set

	id    uint32
	name  string
	pool  *buffer.Pool
	alloc *space.Allocator
	walw  *wal.Writer
	txm   *txn.Manager
	keyOf func(payload []byte) int64

	vmap *vidmap.Map
	resi *vidmap.Residency

	mu          sync.Mutex
	appendBlock uint32
	appendOpen  bool
	nextBlock   uint32
	freeBlocks  []uint32
	tupleCount  map[uint32]int // per block: versions appended
	// deadByBlock is the dead set, indexed by block: per-block layout keeps
	// GC victim processing O(page) instead of O(all garbage).
	deadByBlock []deadSlots
	pendingDead []pendingDead
	// replay tracks writes replayed from the log — by ApplyInsert, or found
	// on the heap by RebuildFromHeap — whose transaction has no outcome yet;
	// ApplyFinish resolves them. Nil on an engine that never replayed.
	replay map[txn.ID][]replayOp

	// gcMu keeps GC and an index backfill apart: both walk the heap assuming
	// a version they have not reached yet stays where it is. It also guards
	// collectPage's reused scratch: a victim's live versions (gcLive) and
	// the copies of their payloads (gcBuf), which a page's relocation reads
	// and nothing keeps.
	gcMu   sync.Mutex
	gcLive []liveVer
	gcBuf  []byte

	// readahead is the scan prefetch window in VIDs (atomic so tests and
	// operators can retune a live relation).
	readahead atomic.Int32

	stats relStats
}

// pendingDead records a predecessor superseded by a committed transaction;
// it becomes collectible once that transaction passes the horizon.
type pendingDead struct {
	pred page.TID
	by   txn.ID
}

// New creates an empty SIAS relation with its VIDmap and primary index.
func New(at simclock.Time, cfg Config) (*Relation, simclock.Time, error) {
	ix, t, err := index.NewSet(at, cfg.PKRelID, cfg.Pool, cfg.Alloc)
	if err != nil {
		return nil, t, err
	}
	r := &Relation{
		Set:        ix,
		id:         cfg.ID,
		name:       cfg.Name,
		pool:       cfg.Pool,
		alloc:      cfg.Alloc,
		walw:       cfg.WAL,
		txm:        cfg.Txns,
		keyOf:      cfg.KeyOf,
		vmap:       vidmap.New(),
		resi:       vidmap.NewResidency(cfg.VMapResidentBuckets),
		tupleCount: map[uint32]int{},
	}
	r.readahead.Store(int32(cfg.Readahead))
	return r, t, nil
}

// SetReadahead retunes the scan readahead window (0 disables).
func (r *Relation) SetReadahead(n int) { r.readahead.Store(int32(n)) }

// stageWindow is the readahead schedule of a scan over n entries with window
// ra: it returns the entries [lo, hi) to stage when the cursor reaches entry
// i (lo == hi: none). The first entry stages the first two windows, [0, 2·ra);
// every later window boundary stages the window after the next,
// [i+ra, i+2·ra). So each entry is staged exactly once, and a window ahead of
// the cursor from the second window on — the first Gets of a window join
// reads already in flight while the window after them loads.
func stageWindow(i, n, ra int) (lo, hi int) {
	if ra <= 0 || i%ra != 0 {
		return 0, 0
	}
	lo, hi = i+ra, i+2*ra
	if i == 0 {
		lo = 0
	}
	return min(lo, n), min(hi, n)
}

// prefetchVIDs stages the distinct device pages holding the entrypoint
// versions of the n VIDs vid(0), …, vid(n-1) into the pool's async
// prefetcher. Pages already resident or in flight are dropped before
// anything is handed over, so a window over a resident pool allocates
// nothing and never calls the prefetcher; the rest are gathered on the stack
// unless a window spans more than maxStaged of them. Chain predecessors are
// not staged — the window targets the first hop, which Algorithm 1 touches
// for every live item; deeper hops are the chain-length tail.
func (r *Relation) prefetchVIDs(at simclock.Time, n int, vid func(i int) uint64) {
	var buf [maxStaged]int64
	pages := buf[:0]
	last := int64(-1)
	for i := 0; i < n; i++ {
		tid, ok := r.vmap.Get(vid(i))
		if !ok || !tid.Valid() {
			continue
		}
		dev, err := r.alloc.DevicePage(r.id, tid.Block)
		if err != nil || dev == last {
			continue
		}
		last = dev
		if !r.pool.Holds(dev) {
			pages = append(pages, dev)
		}
	}
	if len(pages) > 0 {
		r.pool.Prefetch(at, pages)
	}
}

// maxStaged is how many pages one readahead window gathers on the stack.
const maxStaged = 64

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ID returns the heap relation id.
func (r *Relation) ID() uint32 { return r.id }

// VIDMap exposes the relation's VIDmap (read-mostly diagnostics and tests).
func (r *Relation) VIDMap() *vidmap.Map { return r.vmap }

// Stats returns a snapshot of counters.
func (r *Relation) Stats() Stats {
	s := r.stats.snapshot()
	s.IndexLookups = r.Lookups()
	return s
}

// VMapResidency reports the VIDmap residency cache's hit/miss probe counts.
// Both are zero when the residency budget is unlimited: the Touch fast path
// never counts, so callers should treat 0/0 as "fully resident", not 0%.
func (r *Relation) VMapResidency() (hits, misses int64) {
	return r.resi.Stats()
}

// Blocks reports the number of heap blocks ever allocated (the append
// high-water mark).
func (r *Relation) Blocks() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextBlock
}

// LiveBlocks reports allocated blocks minus GC-reclaimed free blocks: the
// relation's occupied space in pages.
func (r *Relation) LiveBlocks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.nextBlock) - len(r.freeBlocks)
}

// vmapTouch charges the residency cost of accessing vid's bucket.
func (r *Relation) vmapTouch(at simclock.Time, vid uint64) simclock.Time {
	if !r.resi.Touch(vidmap.BucketOf(vid)) {
		r.stats.vmapMisses.Add(1)
		return at.Add(vmapMissPenalty)
	}
	return at
}

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
		f.Data.Init(r.id, page.FlagAppend)
		f.Unlock()
		return f, t, nil
	}
	// A never-written block reads back as zeroes; format it on first touch.
	// Double-checked under the exclusive latch: concurrent readers of the
	// same fresh block must not both run Init.
	f.RLock()
	inited := f.Data.Initialized()
	f.RUnlock()
	if !inited {
		f.Lock()
		if !f.Data.Initialized() {
			f.Data.Init(r.id, page.FlagAppend)
		}
		f.Unlock()
	}
	return f, t, nil
}

// append places one tuple version — hdr followed by payload — onto the
// current append page, opening a new page when it is full. The version is
// written straight into the slot it reserves, and the heap-insert record's
// after-image is that slot: the WAL frames it under the frame latch, before
// anyone else can write the page. Any error but a full page is returned,
// leaving the append page as it is. Caller holds r.mu.
func (r *Relation) append(tx txn.ID, at simclock.Time, hdr tuple.SIASHeader, payload []byte) (page.TID, simclock.Time, error) {
	size := tuple.SIASHeaderSize + len(payload)
	t := at
	for attempt := 0; attempt < 2; attempt++ {
		if !r.appendOpen {
			r.openAppendBlockLocked()
		}
		isFresh := r.tupleCount[r.appendBlock] == 0
		f, t2, err := r.getPage(t, r.appendBlock, isFresh)
		t = t2
		if err != nil {
			return page.InvalidTID, t, err
		}
		// Exclusive frame latch across the slot insert and LSN stamp:
		// concurrent chain readers of earlier slots proceed under the
		// shared latch between our critical sections.
		f.Lock()
		slot, dst, rerr := f.Data.Reserve(size)
		if rerr != nil {
			f.Unlock()
			r.pool.Release(f, false)
			if !errors.Is(rerr, page.ErrPageFull) {
				return page.InvalidTID, t, fmt.Errorf("sias: append to block %d: %w", r.appendBlock, rerr)
			}
			// Page full: seal it and retry on a fresh one.
			r.sealLocked()
			continue
		}
		tuple.PutSIAS(dst, hdr, payload)
		tid := page.TID{Block: r.appendBlock, Slot: uint16(slot)}
		lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapInsert, Tx: tx, Rel: r.id, TID: tid, Data: dst})
		f.Data.SetLSN(uint64(lsn))
		f.Unlock()
		r.pool.Release(f, true)
		r.tupleCount[r.appendBlock]++
		r.stats.appends.Add(1)
		return tid, t, nil
	}
	return page.InvalidTID, t, fmt.Errorf("sias: tuple of %d bytes does not fit an empty page", size)
}

// openAppendBlockLocked starts a new append page, preferring GC-reclaimed
// blocks (space reuse) and extending the high-water mark otherwise.
func (r *Relation) openAppendBlockLocked() {
	if n := len(r.freeBlocks); n > 0 {
		r.appendBlock = r.freeBlocks[n-1]
		r.freeBlocks = r.freeBlocks[:n-1]
	} else {
		r.appendBlock = r.nextBlock
		r.nextBlock++
	}
	r.appendOpen = true
	r.tupleCount[r.appendBlock] = 0
}

// sealLocked closes the current append page. Sealed pages are immutable:
// the next append opens a fresh page. Counted toward fill-degree stats.
func (r *Relation) sealLocked() {
	if !r.appendOpen {
		return
	}
	n := r.tupleCount[r.appendBlock]
	if n == 0 {
		return // nothing on it; keep it open
	}
	r.stats.pagesSealed.Add(1)
	r.stats.sealedTuples.Add(int64(n))
	r.appendOpen = false
}

// SealAppend applies the flush threshold (Section 5.2): it seals the open
// append page if it holds any tuples and flushes it to the device. Under
// threshold t1 the engine calls this on every background-writer tick; under
// t2 only at checkpoints (and the checkpoint's FlushAll performs the write).
func (r *Relation) SealAppend(at simclock.Time, flush bool) (simclock.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.appendOpen || r.tupleCount[r.appendBlock] == 0 {
		return at, nil
	}
	block := r.appendBlock
	r.sealLocked()
	if !flush {
		return at, nil
	}
	dev, err := r.alloc.DevicePage(r.id, block)
	if err != nil {
		return at, err
	}
	return r.pool.FlushPage(at, dev)
}

// fetch reads the version at tid, returning header and payload copy. That
// copy is the only one a read makes: the caller owns it, and a row decoded
// from it (tuple.Schema.DecodeRow) aliases it. The page bytes are read under
// the frame's shared latch, not r.mu: the tid may live on the open append
// page, but appenders mutate it under the exclusive latch, and a slot is only
// reachable (via VIDmap or a chain pointer) after its insert completed — so
// concurrent chain readers never serialize on the relation mutex. For the
// same reason the page is formatted already, so fetch pins it without
// getPage's first-touch check and latches it once.
func (r *Relation) fetch(at simclock.Time, tid page.TID) (tuple.SIASHeader, []byte, simclock.Time, error) {
	dev, err := r.alloc.DevicePage(r.id, tid.Block)
	if err != nil {
		return tuple.SIASHeader{}, nil, at, err
	}
	f, t, err := r.pool.Get(at, dev, false)
	if err != nil {
		return tuple.SIASHeader{}, nil, t, err
	}
	f.RLock()
	raw, terr := f.Data.Tuple(int(tid.Slot))
	if terr != nil {
		f.RUnlock()
		r.pool.Release(f, false)
		return tuple.SIASHeader{}, nil, t, fmt.Errorf("sias: fetch %v: %w", tid, terr)
	}
	hdr, payload, derr := tuple.DecodeSIAS(raw)
	if derr != nil {
		f.RUnlock()
		r.pool.Release(f, false)
		return tuple.SIASHeader{}, nil, t, derr
	}
	out := append([]byte(nil), payload...)
	f.RUnlock()
	r.pool.Release(f, false)
	return hdr, out, t, nil
}

// chainLookup walks vid's chain from the entrypoint and returns the first
// version visible to tx (Algorithm 1, lines 3-14). found=false when the
// chain has no visible version or the item does not exist.
func (r *Relation) chainLookup(tx *txn.Tx, at simclock.Time, vid uint64) (tuple.SIASHeader, []byte, simclock.Time, bool, error) {
	t := r.vmapTouch(at, vid)
	tid, ok := r.vmap.Get(vid)
	if !ok {
		return tuple.SIASHeader{}, nil, t, false, nil
	}
	r.stats.chainWalks.Add(1)
	for tid.Valid() {
		hdr, payload, t2, err := r.fetch(t, tid)
		t = t2
		if err != nil {
			return tuple.SIASHeader{}, nil, t, false, err
		}
		if tx.Visible(hdr.Create) {
			return hdr, payload, t, true, nil
		}
		tid = hdr.Pred
		r.stats.chainHops.Add(1)
	}
	return tuple.SIASHeader{}, nil, t, false, nil
}

// Insert creates a new data item (Algorithm 2) and returns its VID.
func (r *Relation) Insert(tx *txn.Tx, at simclock.Time, key int64, payload []byte) (uint64, simclock.Time, error) {
	tx.MarkWrote()
	vid := r.vmap.AllocVID()
	if err := r.txm.Locks().Acquire(tx, txn.LockKey{Rel: r.id, Item: vid}); err != nil {
		return 0, at, err
	}
	r.mu.Lock()
	tid, t, err := r.append(tx.ID, at, tuple.SIASHeader{Create: tx.ID, VID: vid, Pred: page.InvalidTID}, payload)
	r.mu.Unlock()
	if err != nil {
		return 0, t, err
	}
	t = r.vmapTouch(t, vid)
	r.vmap.Set(vid, tid)
	tx.OnFinish(func(committed bool) {
		if !committed {
			r.vmap.Clear(vid, tid)
			r.noteDead(tid) // aborted version is immediate garbage
		}
	})

	t, err = r.PK.Insert(t, key, vid)
	if err != nil {
		return 0, t, err
	}
	r.stats.indexInserts.Add(1)
	// Set inserts although the VID is new: a backfill of one of these trees
	// may be scanning the page the version just landed on (BackfillSecondary).
	t, err = r.indexSecondaries(t, vid, nil, payload)
	return vid, t, err
}

// indexSecondaries set-inserts <key, vid> into every live secondary index
// that indexes payload, except where old — vid's previous version, nil for a
// new item — has the same key already: a non-key update writes no index.
func (r *Relation) indexSecondaries(at simclock.Time, vid uint64, old, payload []byte) (simclock.Time, error) {
	t := at
	for _, sec := range r.Secondaries() {
		if sec.Tree == nil {
			continue
		}
		k, ok := sec.Key(payload)
		if !ok {
			continue
		}
		if old != nil {
			if oldK, oldOk := sec.Key(old); oldOk && oldK == k {
				continue
			}
		}
		var err error
		if t, err = r.addEntry(t, sec.Tree, k, vid); err != nil {
			return t, err
		}
	}
	return t, nil
}

// addEntry set-inserts <key, vid> into tree (index.Tree.Add) and counts the
// insert if the entry was not there yet.
func (r *Relation) addEntry(at simclock.Time, tree *index.Tree, key int64, vid uint64) (simclock.Time, error) {
	added, t, err := tree.Add(at, key, vid)
	if added {
		r.stats.indexInserts.Add(1)
	}
	return t, err
}

// deadSlots is one block's dead set: a bitmap over its slots, and how many
// of its bits are set.
type deadSlots struct {
	bits []uint64
	n    int
}

// markDeadLocked adds tid to the per-block dead set. Caller holds r.mu.
func (r *Relation) markDeadLocked(tid page.TID) {
	if n := int(tid.Block) + 1; n > len(r.deadByBlock) {
		r.deadByBlock = append(r.deadByBlock, make([]deadSlots, n-len(r.deadByBlock))...)
	}
	d := &r.deadByBlock[tid.Block]
	w, bit := int(tid.Slot/64), uint64(1)<<(tid.Slot%64)
	if w >= len(d.bits) {
		d.bits = append(d.bits, make([]uint64, w+1-len(d.bits))...)
	}
	if d.bits[w]&bit == 0 {
		d.bits[w] |= bit
		d.n++
	}
}

// isDeadLocked reports whether tid is known garbage. Caller holds r.mu.
func (r *Relation) isDeadLocked(tid page.TID) bool {
	if int(tid.Block) >= len(r.deadByBlock) {
		return false
	}
	bits, w := r.deadByBlock[tid.Block].bits, int(tid.Slot/64)
	return w < len(bits) && bits[w]&(uint64(1)<<(tid.Slot%64)) != 0
}

// forgetDeadLocked empties block's dead set: the block was reclaimed. Caller
// holds r.mu.
func (r *Relation) forgetDeadLocked(block uint32) {
	if int(block) < len(r.deadByBlock) {
		d := &r.deadByBlock[block]
		clear(d.bits)
		d.n = 0
	}
}

// noteDead records a version as immediate garbage (aborted writes).
func (r *Relation) noteDead(tid page.TID) {
	r.mu.Lock()
	r.markDeadLocked(tid)
	r.mu.Unlock()
}

// pointVIDs sizes the VID buffer of a key-level Get, Update or Delete: a
// key has one VID unless rows moved through it (stale key epochs).
const pointVIDs = 4

// byKey is every key-level operation (Section 4.3): collect the VIDs the
// primary index maps key to, and run op on each in turn until it returns
// anything but index.ErrNoRow or index.ErrStale. <key, VID> entries outlive
// key changes (Example 1), so a key may name rows that have moved to
// another: op's callback re-checks the key of the version it resolves and
// passes over it with index.ErrStale.
func (r *Relation) byKey(at simclock.Time, key int64, op func(t simclock.Time, vid uint64) (simclock.Time, error)) (simclock.Time, error) {
	var buf [pointVIDs]uint64
	vids, t, err := r.PK.SearchAppend(at, key, buf[:0])
	if err != nil {
		return t, err
	}
	for _, vid := range vids {
		t, err = op(t, vid)
		if !errors.Is(err, index.ErrNoRow) && !errors.Is(err, index.ErrStale) {
			return t, err
		}
	}
	return t, index.ErrNoRow
}

// Get hands fn the version of key visible to tx, with its VID (no TID:
// SIAS names a version by its item). fn returns nil to accept it,
// index.ErrStale to pass over it (byKey), or an error to return.
func (r *Relation) Get(tx *txn.Tx, at simclock.Time, key int64, fn func(vid uint64, tid page.TID, payload []byte) error) (simclock.Time, error) {
	return r.byKey(at, key, func(t simclock.Time, vid uint64) (simclock.Time, error) {
		payload, t, err := r.getVID(tx, t, vid)
		if err != nil {
			return t, err
		}
		return t, fn(vid, page.InvalidTID, payload)
	})
}

// Update applies mutate to the visible version of key, appending the
// successor (Algorithm 3). mutate gets the version as Get's fn does, and may
// pass over it the same way; it returns the new payload plus the new primary
// key — a changed key adds a <key, VID> entry, and an unchanged one leaves
// the index untouched (Section 4.3).
func (r *Relation) Update(tx *txn.Tx, at simclock.Time, key int64, mutate func(vid uint64, tid page.TID, old []byte) ([]byte, int64, error)) (simclock.Time, error) {
	return r.byKey(at, key, func(t simclock.Time, vid uint64) (simclock.Time, error) {
		return r.updateVID(tx, t, vid, key, mutate)
	})
}

// Delete appends a tombstone to the visible version of key (Section
// 4.2.2): transactions that started before the deleting transaction commits
// still reach the last committed state through the chain. check sees the
// version first, as Get's fn does; an error from it returns before anything
// is appended.
func (r *Relation) Delete(tx *txn.Tx, at simclock.Time, key int64, check func(vid uint64, tid page.TID, old []byte) error) (simclock.Time, error) {
	return r.byKey(at, key, func(t simclock.Time, vid uint64) (simclock.Time, error) {
		return r.deleteVID(tx, t, vid, check)
	})
}

// updateVID is Update of one item, vid, whose key is oldKey.
func (r *Relation) updateVID(tx *txn.Tx, at simclock.Time, vid uint64, oldKey int64, mutate func(vid uint64, tid page.TID, old []byte) ([]byte, int64, error)) (simclock.Time, error) {
	entryTID, payload, t, err := r.lockEntrypoint(tx, at, vid)
	if err != nil {
		return t, err
	}
	newPayload, newKey, err := mutate(vid, page.InvalidTID, payload)
	if err != nil {
		return t, err
	}
	if t, err = r.supersede(tx, t, tuple.SIASHeader{Create: tx.ID, VID: vid, Pred: entryTID}, newPayload); err != nil {
		return t, err
	}
	if newKey != oldKey {
		// Key change: add the new <key, VID> entry; the old entry remains
		// valid for transactions that still see old versions (Figure 2).
		// Entries are a set per <key, VID>: a row returning to a key it held
		// before finds its old entry still there and must not duplicate it,
		// or multi-version lookups would count the row once per stint.
		if t, err = r.addEntry(t, r.PK, newKey, vid); err != nil {
			return t, err
		}
	}
	return r.indexSecondaries(t, vid, payload, newPayload)
}

// deleteVID is Delete of one item, vid.
func (r *Relation) deleteVID(tx *txn.Tx, at simclock.Time, vid uint64, check func(vid uint64, tid page.TID, old []byte) error) (simclock.Time, error) {
	entryTID, payload, t, err := r.lockEntrypoint(tx, at, vid)
	if err != nil {
		return t, err
	}
	if err := check(vid, page.InvalidTID, payload); err != nil {
		return t, err
	}
	r.stats.tombstones.Add(1)
	return r.supersede(tx, t, tuple.SIASHeader{Create: tx.ID, VID: vid, Pred: entryTID, Flags: tuple.FlagTombstone}, nil)
}

// lockEntrypoint takes item vid's lock for tx (Algorithm 3, line 7:
// REQUESTXLOCK — it blocks behind a concurrent updater) and returns the
// entrypoint version it re-validates on wakeup: it must be visible to tx —
// otherwise a concurrent transaction won the update race (line 4,
// first-updater-wins) — and not a tombstone.
func (r *Relation) lockEntrypoint(tx *txn.Tx, at simclock.Time, vid uint64) (page.TID, []byte, simclock.Time, error) {
	tx.MarkWrote()
	if err := r.txm.Locks().Acquire(tx, txn.LockKey{Rel: r.id, Item: vid}); err != nil {
		return page.InvalidTID, nil, at, err
	}
	t := r.vmapTouch(at, vid)
	entryTID, ok := r.vmap.Get(vid)
	if !ok {
		return page.InvalidTID, nil, t, index.ErrNoRow
	}
	hdr, payload, t, err := r.fetch(t, entryTID)
	if err != nil {
		return page.InvalidTID, nil, t, err
	}
	if !tx.Visible(hdr.Create) {
		return page.InvalidTID, nil, t, txn.ErrSerialization
	}
	if hdr.Tombstone() {
		return page.InvalidTID, nil, t, index.ErrNoRow
	}
	return entryTID, payload, t, nil
}

// supersede appends hdr and payload as the new entrypoint of the item
// hdr.VID, whose current one is hdr.Pred. The VIDmap points at the new
// (still uncommitted) version at once: it is invisible to everyone else,
// which "locks" the item (Section 4.2.2). Commit queues the predecessor for
// GC; rollback restores it as the entrypoint.
func (r *Relation) supersede(tx *txn.Tx, at simclock.Time, hdr tuple.SIASHeader, payload []byte) (simclock.Time, error) {
	r.mu.Lock()
	newTID, t, err := r.append(tx.ID, at, hdr, payload)
	r.mu.Unlock()
	if err != nil {
		return t, err
	}
	vid, pred := hdr.VID, hdr.Pred
	t = r.vmapTouch(t, vid)
	r.vmap.Set(vid, newTID)
	tx.OnFinish(func(committed bool) {
		if committed {
			r.mu.Lock()
			r.pendingDead = append(r.pendingDead, pendingDead{pred: pred, by: tx.ID})
			r.mu.Unlock()
		} else {
			r.vmap.CompareAndSwap(vid, newTID, pred)
			r.noteDead(newTID)
		}
	})
	return t, nil
}

// getVID returns the payload of vid's version visible to tx.
func (r *Relation) getVID(tx *txn.Tx, at simclock.Time, vid uint64) ([]byte, simclock.Time, error) {
	hdr, payload, t, found, err := r.chainLookup(tx, at, vid)
	if err != nil {
		return nil, t, err
	}
	if !found || hdr.Tombstone() {
		return nil, t, index.ErrNoRow
	}
	return payload, t, nil
}

// Scan is Algorithm 1: iterate the VIDmap and resolve each data item to its
// visible version, rather than reading the whole relation — a VID-range scan
// over every VID issued so far. fn returning false stops the scan.
func (r *Relation) Scan(tx *txn.Tx, at simclock.Time, fn func(vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	return r.ScanVIDRange(tx, at, 0, r.vmap.MaxVID(), fn)
}

// idxEnt is one materialized index entry awaiting chain resolution.
type idxEnt struct {
	key int64
	vid uint64
}

// RangeByKey resolves the primary-index key range [lo, hi] to visible
// versions in key order. Because <key,VID> entries survive key changes, fn
// receives the index key alongside the payload and callers re-check the
// predicate against the decoded row.
func (r *Relation) RangeByKey(tx *txn.Tx, at simclock.Time, lo, hi int64, fn func(indexKey int64, vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	return r.rangeIndex(tx, at, r.PK, lo, hi, fn)
}

// RangeBySecondary resolves the secondary-index key range [lo, hi] to
// visible versions in index-key order; a point lookup is the range lo == hi.
// Entries outlive indexed-column changes (exactly like the primary index),
// so fn receives the index key and callers re-check the predicate against
// the decoded row.
func (r *Relation) RangeBySecondary(tx *txn.Tx, at simclock.Time, idx int, lo, hi int64, fn func(indexKey int64, vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	tree, err := r.Probe(idx)
	if err != nil {
		return at, err
	}
	return r.rangeIndex(tx, at, tree, lo, hi, fn)
}

// rangeIndex is every index read (Section 4.3): collect tree's <key, VID>
// entries in [lo, hi], then resolve each through the VIDmap to its visible
// version in entry order, staging the readahead window's entrypoint pages
// ahead of the cursor. fn returning false stops the resolution.
func (r *Relation) rangeIndex(tx *txn.Tx, at simclock.Time, tree *index.Tree, lo, hi int64, fn func(indexKey int64, vid uint64, tid page.TID, payload []byte) bool) (simclock.Time, error) {
	var ents []idxEnt
	t, err := tree.Range(at, lo, hi, func(k int64, vid uint64) bool {
		ents = append(ents, idxEnt{k, vid})
		return true
	})
	if err != nil {
		return t, err
	}
	ra := int(r.readahead.Load())
	for i, e := range ents {
		if a, b := stageWindow(i, len(ents), ra); a < b {
			r.prefetchVIDs(t, b-a, func(j int) uint64 { return ents[a+j].vid })
		}
		hdr, payload, t2, found, err := r.chainLookup(tx, t, e.vid)
		t = t2
		if err != nil {
			return t, err
		}
		if !found || hdr.Tombstone() {
			continue
		}
		if !fn(e.key, e.vid, page.InvalidTID, payload) {
			return t, nil
		}
	}
	return t, nil
}
