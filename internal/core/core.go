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

// Errors returned by the SIAS engine.
var (
	// ErrNotFound is returned when no visible version exists.
	ErrNotFound = errors.New("sias: no visible tuple version")
)

// SecondaryKey derives a secondary index key from a payload; ok=false means
// "do not index this row".
type SecondaryKey func(payload []byte) (int64, bool)

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
	IndexLookups  int64 // secondary-index point and range lookups
	GCPages       int64 // append pages reclaimed
	GCRelocations int64 // live entrypoints re-appended by GC
	GCDiscarded   int64 // dead versions discarded by GC
	VMapMisses    int64 // VIDmap bucket residency misses
	Erases        int64 // DBMS-issued erases (NoFTL mode)
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
	indexLookups  atomic.Int64
	gcPages       atomic.Int64
	gcRelocations atomic.Int64
	gcDiscarded   atomic.Int64
	vmapMisses    atomic.Int64
	erases        atomic.Int64
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
		IndexLookups:  s.indexLookups.Load(),
		GCPages:       s.gcPages.Load(),
		GCRelocations: s.gcRelocations.Load(),
		GCDiscarded:   s.gcDiscarded.Load(),
		VMapMisses:    s.vmapMisses.Load(),
		Erases:        s.erases.Load(),
	}
}

// AvgFill reports the mean fill degree of sealed pages in tuples/page.
func (s Stats) AvgFill() float64 {
	if s.PagesSealed == 0 {
		return 0
	}
	return float64(s.SealedTuples) / float64(s.PagesSealed)
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
	// VMapResidentBuckets bounds the in-memory VIDmap bucket set;
	// 0 keeps the whole map resident.
	VMapResidentBuckets int
	// VMapMissPenalty is the virtual time charged for swapping in a
	// non-resident VIDmap bucket (one device page read).
	VMapMissPenalty simclock.Duration
	// GCDeadFraction is the minimum dead fraction for a victim page
	// (default 0.5).
	GCDeadFraction float64
	// Readahead is the scan readahead window in data items: scans stage the
	// entrypoint pages of the next Readahead VIDs into the buffer pool's
	// async prefetcher ahead of the cursor. 0 disables readahead.
	Readahead int
	// Eraser, when set, puts the relation in NoFTL mode (Section 6 /
	// Hardock et al. [22]): GC-freed blocks are grouped into erase units
	// and the engine erases them explicitly before reuse, taking full
	// control of the flash geometry away from a device-side FTL.
	Eraser Eraser
	// IndexPool/IndexAlloc optionally place index pages on different
	// storage than the heap (required in NoFTL mode: B+ tree pages are
	// rewritten in place, which raw flash forbids; the paper's NoFTL
	// design likewise confines in-place structures to conventional
	// regions). Defaults: Pool/Alloc.
	IndexPool  *buffer.Pool
	IndexAlloc *space.Allocator
}

// Eraser is the direct-flash capability used in NoFTL mode; the flash
// package's NoFTL device implements it.
type Eraser interface {
	Erase(at simclock.Time, block int64) (simclock.Time, error)
	PagesPerBlock() int
	BlockOf(pageNo int64) int64
}

// Relation is one SIAS-managed table.
type Relation struct {
	id    uint32
	name  string
	pool  *buffer.Pool
	alloc *space.Allocator
	walw  *wal.Writer
	txm   *txn.Manager

	vmap *vidmap.Map
	resi *vidmap.Residency

	pk       *index.Tree
	secs     []*index.Tree
	secFns   []SecondaryKey
	idxPool  *buffer.Pool
	idxAlloc *space.Allocator

	mu          sync.Mutex
	appendBlock uint32
	appendOpen  bool
	nextBlock   uint32
	freeBlocks  []uint32
	tupleCount  map[uint32]int // per block: versions appended
	// deadByBlock maps block -> set of dead slots on it; per-block layout
	// keeps GC victim processing O(page) instead of O(all garbage).
	deadByBlock map[uint32]map[uint16]struct{}
	pendingDead []pendingDead
	// replay tracks writes replayed from the log — by ApplyInsert, or found
	// on the heap by RebuildFromHeap — whose transaction has no outcome yet;
	// ApplyFinish resolves them. Nil on an engine that never replayed.
	replay      map[txn.ID][]replayOp
	gcFraction  float64
	missPenalty simclock.Duration

	// gcMu keeps GC and an index backfill apart: both walk the heap assuming
	// a version they have not reached yet stays where it is.
	gcMu sync.Mutex

	// NoFTL mode: freed blocks wait per erase unit until the whole unit is
	// reclaimable, then get erased and returned for reuse.
	eraser     Eraser
	freeByUnit map[uint32][]uint32

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
	if cfg.IndexPool == nil {
		cfg.IndexPool = cfg.Pool
	}
	if cfg.IndexAlloc == nil {
		cfg.IndexAlloc = cfg.Alloc
	}
	pk, t, err := index.New(at, cfg.PKRelID, cfg.IndexPool, cfg.IndexAlloc)
	if err != nil {
		return nil, t, err
	}
	frac := cfg.GCDeadFraction
	if frac <= 0 {
		frac = 0.35
	}
	r := &Relation{
		id:          cfg.ID,
		name:        cfg.Name,
		pool:        cfg.Pool,
		alloc:       cfg.Alloc,
		walw:        cfg.WAL,
		txm:         cfg.Txns,
		vmap:        vidmap.New(),
		resi:        vidmap.NewResidency(cfg.VMapResidentBuckets),
		pk:          pk,
		idxPool:     cfg.IndexPool,
		idxAlloc:    cfg.IndexAlloc,
		tupleCount:  map[uint32]int{},
		deadByBlock: map[uint32]map[uint16]struct{}{},
		gcFraction:  frac,
		missPenalty: cfg.VMapMissPenalty,
		eraser:      cfg.Eraser,
		freeByUnit:  map[uint32][]uint32{},
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
// versions of vids into the pool's async prefetcher. Chain predecessors are
// not staged — the window targets the first hop, which Algorithm 1 touches
// for every live item; deeper hops are the chain-length tail.
func (r *Relation) prefetchVIDs(at simclock.Time, vids []uint64) {
	if len(vids) == 0 {
		return
	}
	pages := make([]int64, 0, len(vids))
	last := int64(-1)
	for _, vid := range vids {
		tid, ok := r.vmap.Get(vid)
		if !ok || !tid.Valid() {
			continue
		}
		dev, err := r.alloc.DevicePage(r.id, tid.Block)
		if err != nil {
			continue
		}
		if dev == last {
			continue
		}
		last = dev
		pages = append(pages, dev)
	}
	r.pool.Prefetch(at, pages)
}

// AddSecondary attaches a secondary <key, VID> index and returns its
// position. The slices are replaced copy-on-write under r.mu so concurrent
// readers holding a snapshot never observe a partial mutation.
func (r *Relation) AddSecondary(at simclock.Time, relID uint32, fn SecondaryKey) (simclock.Time, error) {
	t, tm, err := index.New(at, relID, r.idxPool, r.idxAlloc)
	if err != nil {
		return tm, err
	}
	r.mu.Lock()
	secs := append(append([]*index.Tree(nil), r.secs...), t)
	secFns := append(append([]SecondaryKey(nil), r.secFns...), fn)
	r.secs, r.secFns = secs, secFns
	r.mu.Unlock()
	return tm, nil
}

// DropSecondary detaches secondary index idx. The slot is tombstoned with a
// nil entry (not removed) so other indexes keep their positions; the tree's
// pages are abandoned, not reclaimed.
func (r *Relation) DropSecondary(idx int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx < 0 || idx >= len(r.secs) || r.secs[idx] == nil {
		return fmt.Errorf("sias: no secondary index %d", idx)
	}
	secs := append([]*index.Tree(nil), r.secs...)
	secFns := append([]SecondaryKey(nil), r.secFns...)
	secs[idx], secFns[idx] = nil, nil
	r.secs, r.secFns = secs, secFns
	return nil
}

// secSnapshot returns a consistent view of the secondary-index slices.
// Dropped slots are nil; callers skip them.
func (r *Relation) secSnapshot() ([]*index.Tree, []SecondaryKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.secs, r.secFns
}

// SecondaryPageWrites reports how many pages secondary index idx has
// dirtied (0 when idx is out of range or dropped) — the §6 zero-index-write
// claim is asserted against this.
func (r *Relation) SecondaryPageWrites(idx int) int64 {
	secs, _ := r.secSnapshot()
	if idx < 0 || idx >= len(secs) || secs[idx] == nil {
		return 0
	}
	return secs[idx].PageWrites()
}

// PKEntries reports the primary index entry count (>= live rows: entries for
// superseded key epochs and tombstoned items linger until GC/rebuild).
func (r *Relation) PKEntries() int64 { return r.pk.Len() }

// SecondaryEntries sums entry counts across live secondary indexes.
func (r *Relation) SecondaryEntries() int64 {
	secs, _ := r.secSnapshot()
	var n int64
	for _, sec := range secs {
		if sec != nil {
			n += sec.Len()
		}
	}
	return n
}

// SecondaryInserts sums cumulative insert counts across live secondary
// indexes (rebuild inserts included).
func (r *Relation) SecondaryInserts() int64 {
	secs, _ := r.secSnapshot()
	var n int64
	for _, sec := range secs {
		if sec != nil {
			n += sec.Inserts()
		}
	}
	return n
}

// SecondaryCount reports the number of live (non-dropped) secondary indexes.
func (r *Relation) SecondaryCount() int {
	secs, _ := r.secSnapshot()
	n := 0
	for _, sec := range secs {
		if sec != nil {
			n++
		}
	}
	return n
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ID returns the heap relation id.
func (r *Relation) ID() uint32 { return r.id }

// VIDMap exposes the relation's VIDmap (read-mostly diagnostics and tests).
func (r *Relation) VIDMap() *vidmap.Map { return r.vmap }

// Stats returns a snapshot of counters.
func (r *Relation) Stats() Stats {
	return r.stats.snapshot()
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
		return at.Add(r.missPenalty)
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

// append places one encoded tuple version onto the current append page,
// opening a new page when full. Caller holds r.mu.
func (r *Relation) append(tx txn.ID, at simclock.Time, tupBytes []byte) (page.TID, simclock.Time, error) {
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
		slot, ierr := f.Data.Insert(tupBytes)
		if ierr != nil {
			// Page full: seal it and retry on a fresh one.
			f.Unlock()
			r.pool.Release(f, false)
			r.sealLocked(false)
			continue
		}
		tid := page.TID{Block: r.appendBlock, Slot: uint16(slot)}
		lsn := r.walw.Append(&wal.Record{Type: wal.RecHeapInsert, Tx: tx, Rel: r.id, TID: tid, Data: tupBytes})
		f.Data.SetLSN(uint64(lsn))
		f.Unlock()
		r.pool.Release(f, true)
		r.tupleCount[r.appendBlock]++
		r.stats.appends.Add(1)
		return tid, t, nil
	}
	return page.InvalidTID, t, fmt.Errorf("sias: tuple of %d bytes does not fit an empty page", len(tupBytes))
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
func (r *Relation) sealLocked(threshold bool) {
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
	_ = threshold
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
	r.sealLocked(true)
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
// concurrent chain readers never serialize on the relation mutex.
func (r *Relation) fetch(at simclock.Time, tid page.TID) (tuple.SIASHeader, []byte, simclock.Time, error) {
	f, t, err := r.getPage(at, tid.Block, false)
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
	tup := tuple.EncodeSIAS(tuple.SIASHeader{Create: tx.ID, VID: vid, Pred: page.InvalidTID}, payload)

	r.mu.Lock()
	tid, t, err := r.append(tx.ID, at, tup)
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

	t, err = r.pk.Insert(t, key, vid)
	if err != nil {
		return 0, t, err
	}
	r.stats.indexInserts.Add(1)
	secs, secFns := r.secSnapshot()
	for i, sec := range secs {
		if sec == nil {
			continue
		}
		if k, ok := secFns[i](payload); ok {
			// A set insert although the VID is new: a backfill of this very
			// tree may be scanning the page the version just landed on
			// (BackfillSecondary).
			if t, err = r.addEntry(t, sec, k, vid); err != nil {
				return 0, t, err
			}
		}
	}
	return vid, t, nil
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

// markDeadLocked adds tid to the per-block dead set. Caller holds r.mu.
func (r *Relation) markDeadLocked(tid page.TID) {
	set := r.deadByBlock[tid.Block]
	if set == nil {
		set = map[uint16]struct{}{}
		r.deadByBlock[tid.Block] = set
	}
	set[tid.Slot] = struct{}{}
}

// isDeadLocked reports whether tid is known garbage. Caller holds r.mu.
func (r *Relation) isDeadLocked(tid page.TID) bool {
	_, ok := r.deadByBlock[tid.Block][tid.Slot]
	return ok
}

// noteDead records a version as immediate garbage (aborted writes).
func (r *Relation) noteDead(tid page.TID) {
	r.mu.Lock()
	r.markDeadLocked(tid)
	r.mu.Unlock()
}

// UpdateByVID applies mutate to the item's current version, appending the
// successor (Algorithm 3). mutate receives the visible payload and returns
// the new payload plus the new primary-index key (used only when the key
// changes — non-key updates leave the index untouched, Section 4.3).
func (r *Relation) UpdateByVID(tx *txn.Tx, at simclock.Time, vid uint64, oldKey int64, mutate func(old []byte) ([]byte, int64, error)) (simclock.Time, error) {
	tx.MarkWrote()
	// Algorithm 3, line 7: REQUESTXLOCK — blocks behind a concurrent
	// updater; on wakeup the entrypoint is re-validated below.
	if err := r.txm.Locks().Acquire(tx, txn.LockKey{Rel: r.id, Item: vid}); err != nil {
		return at, err
	}
	t := r.vmapTouch(at, vid)
	entryTID, ok := r.vmap.Get(vid)
	if !ok {
		return t, ErrNotFound
	}
	hdr, payload, t, err := r.fetch(t, entryTID)
	if err != nil {
		return t, err
	}
	// Algorithm 3, line 4: the entrypoint must be visible to us, otherwise
	// a concurrent transaction won the update race (first-updater-wins).
	if !tx.Visible(hdr.Create) {
		return t, txn.ErrSerialization
	}
	if hdr.Tombstone() {
		return t, ErrNotFound
	}
	newPayload, newKey, err := mutate(payload)
	if err != nil {
		return t, err
	}

	newTup := tuple.EncodeSIAS(tuple.SIASHeader{Create: tx.ID, VID: vid, Pred: entryTID}, newPayload)
	r.mu.Lock()
	newTID, t, err := r.append(tx.ID, t, newTup)
	r.mu.Unlock()
	if err != nil {
		return t, err
	}
	// The VIDmap immediately points at the new (still uncommitted) version:
	// it is invisible to everyone else, which "locks" the item (Section
	// 4.2.2). Rollback restores the old entrypoint.
	t = r.vmapTouch(t, vid)
	r.vmap.Set(vid, newTID)
	pred := entryTID
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

	if newKey != oldKey {
		// Key change: add the new <key, VID> entry; the old entry remains
		// valid for transactions that still see old versions (Figure 2).
		// Entries are a set per <key, VID>: a row returning to a key it held
		// before finds its old entry still there and must not duplicate it,
		// or multi-version lookups would count the row once per stint.
		if t, err = r.addEntry(t, r.pk, newKey, vid); err != nil {
			return t, err
		}
	}
	secs, secFns := r.secSnapshot()
	for i, sec := range secs {
		if sec == nil {
			continue
		}
		oldK, oldOk := secFns[i](payload)
		newK, newOk := secFns[i](newPayload)
		if newOk && (!oldOk || newK != oldK) {
			if t, err = r.addEntry(t, sec, newK, vid); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// DeleteByVID appends a tombstone version (Section 4.2.2): transactions that
// started before the deleting transaction commits still reach the last
// committed state through the chain. A non-nil check sees the visible
// payload first, and an error from it returns before anything is appended —
// the caller's re-check of a key whose <key, VID> entry may be stale.
func (r *Relation) DeleteByVID(tx *txn.Tx, at simclock.Time, vid uint64, check func(old []byte) error) (simclock.Time, error) {
	tx.MarkWrote()
	if err := r.txm.Locks().Acquire(tx, txn.LockKey{Rel: r.id, Item: vid}); err != nil {
		return at, err
	}
	t := r.vmapTouch(at, vid)
	entryTID, ok := r.vmap.Get(vid)
	if !ok {
		return t, ErrNotFound
	}
	hdr, payload, t, err := r.fetch(t, entryTID)
	if err != nil {
		return t, err
	}
	if !tx.Visible(hdr.Create) {
		return t, txn.ErrSerialization
	}
	if hdr.Tombstone() {
		return t, ErrNotFound
	}
	if check != nil {
		if err := check(payload); err != nil {
			return t, err
		}
	}
	tomb := tuple.EncodeSIAS(tuple.SIASHeader{Create: tx.ID, VID: vid, Pred: entryTID, Flags: tuple.FlagTombstone}, nil)
	r.mu.Lock()
	newTID, t, err := r.append(tx.ID, t, tomb)
	r.stats.tombstones.Add(1)
	r.mu.Unlock()
	if err != nil {
		return t, err
	}
	t = r.vmapTouch(t, vid)
	r.vmap.Set(vid, newTID)
	pred := entryTID
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

// GetByVID returns the payload of vid's version visible to tx.
func (r *Relation) GetByVID(tx *txn.Tx, at simclock.Time, vid uint64) ([]byte, simclock.Time, error) {
	hdr, payload, t, found, err := r.chainLookup(tx, at, vid)
	if err != nil {
		return nil, t, err
	}
	if !found || hdr.Tombstone() {
		return nil, t, ErrNotFound
	}
	return payload, t, nil
}

// VIDsForKey returns every VID the primary index maps key to. Multiple VIDs
// (or stale key epochs) can match; callers re-check the predicate against
// the returned versions, as in any index whose entries outlive key changes.
func (r *Relation) VIDsForKey(at simclock.Time, key int64) ([]uint64, simclock.Time, error) {
	return r.pk.Search(at, key)
}

// Scan is Algorithm 1: iterate the VIDmap and resolve each data item to its
// visible version, rather than reading the whole relation. fn returning
// false stops the scan. With readahead enabled, the entrypoint pages of the
// VIDs ahead of the cursor are staged into the pool's async prefetcher, so
// a cold scan keeps several device reads in flight instead of serializing
// misses.
func (r *Relation) Scan(tx *txn.Tx, at simclock.Time, fn func(vid uint64, payload []byte) bool) (simclock.Time, error) {
	if ra := int(r.readahead.Load()); ra > 0 {
		var vids []uint64
		r.vmap.Range(func(vid uint64, _ page.TID) bool {
			vids = append(vids, vid)
			return true
		})
		t := at
		for i, vid := range vids {
			if lo, hi := stageWindow(i, len(vids), ra); lo < hi {
				r.prefetchVIDs(t, vids[lo:hi])
			}
			hdr, payload, t2, found, err := r.chainLookup(tx, t, vid)
			t = t2
			if err != nil {
				return t, err
			}
			if !found || hdr.Tombstone() {
				continue
			}
			if !fn(vid, payload) {
				return t, nil
			}
		}
		return t, nil
	}
	t := at
	var outerErr error
	r.vmap.Range(func(vid uint64, _ page.TID) bool {
		hdr, payload, t2, found, err := r.chainLookup(tx, t, vid)
		t = t2
		if err != nil {
			outerErr = err
			return false
		}
		if !found || hdr.Tombstone() {
			return true
		}
		return fn(vid, payload)
	})
	return t, outerErr
}

// idxEnt is one materialized index entry awaiting chain resolution.
type idxEnt struct {
	key int64
	vid uint64
}

// resolveEnts resolves materialized index entries to visible versions in
// order, staging the readahead window's entrypoint pages ahead of the
// cursor. fn returning false stops the resolution.
func (r *Relation) resolveEnts(tx *txn.Tx, at simclock.Time, ents []idxEnt, fn func(indexKey int64, vid uint64, payload []byte) bool) (simclock.Time, error) {
	ra := int(r.readahead.Load())
	var window []uint64
	t := at
	for i, e := range ents {
		if lo, hi := stageWindow(i, len(ents), ra); lo < hi {
			window = window[:0]
			for _, w := range ents[lo:hi] {
				window = append(window, w.vid)
			}
			r.prefetchVIDs(t, window)
		}
		hdr, payload, t2, found, err := r.chainLookup(tx, t, e.vid)
		t = t2
		if err != nil {
			return t, err
		}
		if !found || hdr.Tombstone() {
			continue
		}
		if !fn(e.key, e.vid, payload) {
			return t, nil
		}
	}
	return t, nil
}

// RangeByKey resolves the primary-index key range [lo, hi] to visible
// versions in key order. Because <key,VID> entries survive key changes, fn
// receives the index key alongside the payload and callers re-check the
// predicate against the decoded row.
func (r *Relation) RangeByKey(tx *txn.Tx, at simclock.Time, lo, hi int64, fn func(indexKey int64, vid uint64, payload []byte) bool) (simclock.Time, error) {
	var ents []idxEnt
	t, err := r.pk.Range(at, lo, hi, func(k int64, vid uint64) bool {
		ents = append(ents, idxEnt{k, vid})
		return true
	})
	if err != nil {
		return t, err
	}
	return r.resolveEnts(tx, t, ents, fn)
}

// SearchSecondary resolves a secondary-index key to visible payloads.
func (r *Relation) SearchSecondary(tx *txn.Tx, at simclock.Time, idx int, key int64) ([][]byte, simclock.Time, error) {
	secs, _ := r.secSnapshot()
	if idx < 0 || idx >= len(secs) || secs[idx] == nil {
		return nil, at, fmt.Errorf("sias: no secondary index %d", idx)
	}
	r.stats.indexLookups.Add(1)
	vids, t, err := secs[idx].Search(at, key)
	if err != nil {
		return nil, t, err
	}
	var out [][]byte
	for _, vid := range vids {
		payload, t2, err := r.GetByVID(tx, t, vid)
		t = t2
		if err == nil {
			out = append(out, payload)
		} else if !errors.Is(err, ErrNotFound) {
			return nil, t, err
		}
	}
	return out, t, nil
}

// RangeBySecondary resolves the secondary-index key range [lo, hi] to
// visible versions in index-key order. Entries outlive indexed-column
// changes (exactly like the primary index), so fn receives the index key and
// callers re-check the predicate against the decoded row.
func (r *Relation) RangeBySecondary(tx *txn.Tx, at simclock.Time, idx int, lo, hi int64, fn func(indexKey int64, vid uint64, payload []byte) bool) (simclock.Time, error) {
	secs, _ := r.secSnapshot()
	if idx < 0 || idx >= len(secs) || secs[idx] == nil {
		return at, fmt.Errorf("sias: no secondary index %d", idx)
	}
	r.stats.indexLookups.Add(1)
	var ents []idxEnt
	t, err := secs[idx].Range(at, lo, hi, func(k int64, vid uint64) bool {
		ents = append(ents, idxEnt{k, vid})
		return true
	})
	if err != nil {
		return t, err
	}
	return r.resolveEnts(tx, t, ents, fn)
}
