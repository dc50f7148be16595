// Package engine assembles the substrates into a database: transaction
// manager, WAL, buffer pool, space allocator and per-table storage managers
// of either kind (SI baseline or SIAS), plus the maintenance machinery that
// implements the paper's flush thresholds, checkpoints, vacuum and GC.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/obs"
	"sias/internal/simclock"
	"sias/internal/space"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Kind selects the storage engine.
type Kind int

// Engine kinds.
const (
	// KindSI is the baseline: classical snapshot isolation with in-place
	// invalidation.
	KindSI Kind = iota
	// KindSIAS is the paper's engine: append storage with version chains.
	KindSIAS
)

func (k Kind) String() string {
	if k == KindSIAS {
		return "SIAS"
	}
	return "SI"
}

// FlushPolicy selects the paper's append-flush threshold (Section 5.2).
type FlushPolicy int

// Flush policies.
const (
	// PolicyT1 persists dirty pages on every background-writer tick —
	// the PostgreSQL bgwriter default. Under SIAS this seals sparsely
	// filled append pages.
	PolicyT1 FlushPolicy = iota
	// PolicyT2 piggybacks persistence on checkpoints, so SIAS append pages
	// are nearly always full when first written.
	PolicyT2
)

func (p FlushPolicy) String() string {
	if p == PolicyT2 {
		return "t2"
	}
	return "t1"
}

// Virtual-time costs and maintenance pacing, read only by the simulator (a
// served engine runs at the zero instant; see Facade). Constants, not
// Options: no caller ever ran with other values.
const (
	bufferHitCost      = simclock.Microsecond       // virtual CPU cost of a buffer hit
	bgWriterInterval   = 200 * simclock.Millisecond // policy t1; PostgreSQL bgwriter_delay
	checkpointInterval = 30 * simclock.Second       // checkpoints, and so policy t2 flushes; PostgreSQL checkpoint_timeout
	gcInterval         = 5 * simclock.Second        // SIAS: the paper integrates GC into the DBMS and runs it eagerly
	vacuumInterval     = 60 * simclock.Second       // SI: PostgreSQL autovacuum_naptime
)

// Options configures Open.
type Options struct {
	Kind   Kind
	Policy FlushPolicy

	// DataDevice stores heap and index pages; WALDevice stores the log.
	DataDevice device.BlockDevice
	WALDevice  device.BlockDevice

	// PoolFrames sizes the buffer pool (pages). The pool chooses its own
	// lock-stripe count from it (1 stripe for small pools, up to
	// buffer.DefaultPartitions).
	PoolFrames int
	// ScanReadahead is the scan readahead window in data items: table scans
	// stage the entrypoint pages of that many upcoming VIDs into the pool's
	// async prefetcher ahead of the cursor. 0 disables readahead.
	ScanReadahead int

	// GCRetention holds GC/vacuum back by this many transaction ids:
	// superseded versions written by the most recent GCRetention committed
	// transactions are retained even when no live snapshot needs them, so an
	// AS OF token (SnapshotToken) stays fully resolvable until the horizon
	// has advanced GCRetention ids past it — the store's time-travel
	// retention limit. 0 reclaims everything live snapshots cannot reach.
	GCRetention uint64

	// VMapResidentBuckets bounds resident VIDmap buckets (0 = unlimited).
	VMapResidentBuckets int

	// Recover scans the WAL device and replays it; use when reopening
	// existing devices after a crash. The log is continued at the exact end
	// of its intact records.
	Recover bool
}

// DefaultOptions returns a SIAS/t2 configuration with a 2048-frame pool and
// PostgreSQL-like maintenance pacing (200 ms bgwriter, 30 s checkpoints).
func DefaultOptions(data, walDev device.BlockDevice) Options {
	return Options{
		Kind:       KindSIAS,
		Policy:     PolicyT2,
		DataDevice: data,
		WALDevice:  walDev,
		PoolFrames: 2048,
	}
}

// DB is an open database instance.
type DB struct {
	opts  Options
	txm   *txn.Manager
	walw  *wal.Writer
	pool  *buffer.Pool
	alloc *space.Allocator

	mu        sync.Mutex
	tables    map[string]*Table
	order     []*Table
	rels      map[uint32]*Table // heap relation id -> table (guarded by mu)
	nextRelID uint32

	lastBg    simclock.Time
	lastCkpt  simclock.Time
	lastMaint simclock.Time

	// What Open's analysis pass keeps of an existing log for Recover: where
	// its records end, the last checkpoint's redo point, and the coordinator
	// decisions (gid -> committed) that Decisions copies and finishUndecided
	// reads. Recover drops the decisions.
	logEnd      wal.LSN
	redoFrom    wal.LSN
	decisions   map[uint64]bool
	maxBlockRel map[uint32]uint32
	// The last recovery's phase durations in nanoseconds — Open's analysis
	// pass, Recover's redo pass and heap rebuild — for Stats. Only recovery
	// writes them.
	recoverAnalyzeNs, recoverRedoNs, recoverRebuildNs atomic.Int64
	// prepared holds the 2PC participants redo has seen prepared and not yet
	// decided. Written only by redo and finishUndecided, which recovery runs
	// single-threaded and the repl.Follower serializes.
	prepared map[txn.ID]preparedTxn

	// Replica mode (replication follower): reads only, all WAL appends come
	// from ApplyRecord's re-encoded primary records. See replica.go.
	replica      atomic.Bool
	replicaXMax  atomic.Uint64 // snapshot horizon for read-only transactions
	replicaMaxTx atomic.Uint64 // highest transaction id seen in applied records
	replicaDirty atomic.Bool   // heap changed since the last RefreshReplica

	// Hot-path counters are atomics so Commit/Abort/Stats never touch
	// db.mu, which Tick holds during maintenance scheduling.
	commits        atomic.Int64
	roCommits      atomic.Int64 // of commits: finished without a log record
	aborts         atomic.Int64
	commitFlushes  atomic.Int64 // commit, prepare and decide calls that wrote the log
	commitBatches  atomic.Int64 // commits' log writes that carried more than one commit
	commitMaxBatch atomic.Int64 // most commit records one commit's log write carried

	// 2PC state: participant prepares logged, and in-doubt transactions
	// recovery resolved each way. resolver consults sibling shards' decision
	// logs (set between Open and Recover; nil outside a multi-shard restart).
	prepares       atomic.Int64
	inDoubtCommits atomic.Int64
	inDoubtAborts  atomic.Int64
	resolver       InDoubtResolver
}

// Open creates a database over the given devices.
func Open(opts Options) (*DB, error) {
	if opts.DataDevice == nil || opts.WALDevice == nil {
		return nil, errors.New("engine: data and WAL devices are required")
	}
	if opts.Kind == KindSI && (opts.Recover || opts.GCRetention > 0) {
		return nil, ErrSIBaseline
	}
	if opts.PoolFrames <= 0 {
		opts.PoolFrames = 2048
	}

	db := &DB{
		opts:        opts,
		txm:         txn.NewManager(),
		tables:      map[string]*Table{},
		rels:        map[uint32]*Table{},
		nextRelID:   1,
		maxBlockRel: map[uint32]uint32{},
		prepared:    map[txn.ID]preparedTxn{},
	}

	if opts.Recover {
		// Analyse the existing log before creating the writer, which goes on
		// writing at the exact end of its intact records.
		db.decisions = map[uint64]bool{}
		start := time.Now()
		end, err := wal.Scan(opts.WALDevice, db.analyze)
		if err != nil {
			return nil, fmt.Errorf("engine: WAL pre-scan: %w", err)
		}
		db.recoverAnalyzeNs.Store(int64(time.Since(start)))
		db.logEnd = end
		if db.walw, err = wal.NewWriterResume(opts.WALDevice, end); err != nil {
			return nil, fmt.Errorf("engine: WAL writer: %w", err)
		}
	} else {
		db.walw = wal.NewWriter(opts.WALDevice)
	}

	db.pool = buffer.New(buffer.Config{
		Frames:  opts.PoolFrames,
		HitCost: bufferHitCost,
		WALFlush: func(at simclock.Time, lsn uint64) (simclock.Time, error) {
			return db.walw.Flush(at, wal.LSN(lsn))
		},
	}, opts.DataDevice)

	db.alloc = space.NewAllocator(opts.DataDevice.NumPages(), space.DefaultExtentSize)
	db.alloc.OnAlloc = func(rel uint32, ext uint32, base int64) {
		if db.replica.Load() {
			// A follower's log is a byte mirror of the primary's; local
			// grants (there should be none outside the scratch region, which
			// never reports) must not append to it.
			return
		}
		db.walw.Append(&wal.Record{Type: wal.RecAllocExtent, Rel: rel, Aux: uint64(base)<<32 | uint64(ext)})
	}
	return db, nil
}

// Txns exposes the transaction manager.
func (db *DB) Txns() *txn.Manager { return db.txm }

// Pool exposes the buffer pool (stats, tests).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// WAL exposes the log writer (stats, tests).
func (db *DB) WAL() *wal.Writer { return db.walw }

// WALDevice exposes the raw log device; replication subscribers read shipped
// batches from it (flushed pages only, bounded by the writer's durable LSN).
func (db *DB) WALDevice() device.BlockDevice { return db.opts.WALDevice }

// Alloc exposes the space allocator (stats, tests).
func (db *DB) Alloc() *space.Allocator { return db.alloc }

// ErrReadOnly rejects writes on a replication follower that has not been
// promoted, and writes under a read-only transaction (an AS OF snapshot, a
// replica read): the three Table write methods check it before anything is
// encoded or logged, so no caller can bypass it.
var ErrReadOnly = errors.New("engine: read-only replica")

// ErrSIBaseline refuses, on a KindSI DB, every path only a served engine
// takes: Open with Recover or GCRetention, follower apply
// (ApplyRecord, RefreshReplica, Promote) and logged DDL. The SI baseline is
// the simulator's comparison engine; it never replays its log.
var ErrSIBaseline = errors.New("engine: the SI baseline is simulator-only (no recovery, replication, logged DDL or AS OF retention)")

// Begin starts a transaction. On a replica it returns a read-only snapshot
// transaction pinned at the applied replication horizon.
func (db *DB) Begin() *txn.Tx {
	if db.replica.Load() {
		return db.txm.BeginReadOnlyAt(txn.ID(db.replicaXMax.Load()))
	}
	return db.txm.Begin()
}

// Commit makes tx durable: its commit record is appended and forced to the
// log (the writer's flush is the group commit: concurrent committers share
// its device writes), and only then does the CLOG flip. A flush failure fails
// the commit.
func (db *DB) Commit(tx *txn.Tx, at simclock.Time) (simclock.Time, error) {
	t, _, err := db.commit(tx, at)
	return t, err
}

// commit is Commit, also returning how many commit records its own log write
// carried: 0 when another caller's write made tx's record durable. A
// read-only transaction (a replica snapshot) has no commit record and forces
// nothing; it still commits, so its finish hooks run.
func (db *DB) commit(tx *txn.Tx, at simclock.Time) (simclock.Time, int, error) {
	t, n := at, 0
	if !tx.ReadOnly() {
		var err error
		t, n, err = db.walw.FlushCommits(at, db.walw.Append(&wal.Record{Type: wal.RecCommit, Tx: tx.ID}))
		if err != nil {
			return t, 0, err
		}
		if n > 0 {
			db.noteCommitFlush(n)
		}
	}
	return t, n, db.finish(tx, true)
}

// noteCommitFlush counts a commit's log write that carried n commit records.
func (db *DB) noteCommitFlush(n int) {
	db.commitFlushes.Add(1)
	if n > 1 {
		db.commitBatches.Add(1)
	}
	for {
		cur := db.commitMaxBatch.Load()
		if int64(n) <= cur || db.commitMaxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// finishUnlogged ends a transaction that wrote nothing (txn.Tx.Wrote is
// false) without touching the log: the CLOG flips, finish hooks run and the
// snapshot is released. Safe because no version and no WAL record carries
// its id — after a crash recovery may hand the id out again, and whoever
// gets it finds nothing of the earlier holder on disk. This is the serving
// path's (Facade) commit and abort for readers; Commit and Abort keep
// logging every non-ReadOnly transaction, because the simulator
// (internal/tpcc, internal/exp) calls them directly and EXPERIMENTS.md is
// pinned to the log volume they produce — folding the simulator in is a
// deliberate golden update for a later change.
func (db *DB) finishUnlogged(tx *txn.Tx, commit bool) error {
	err := db.finish(tx, commit)
	if err == nil && commit {
		db.roCommits.Add(1)
	}
	return err
}

// finish flips tx to its outcome in memory (CLOG, finish hooks, locks) and
// counts it. Whatever the outcome needs in the log is the caller's business.
func (db *DB) finish(tx *txn.Tx, commit bool) error {
	if commit {
		if err := db.txm.Commit(tx); err != nil {
			return err
		}
		db.commits.Add(1)
		return nil
	}
	if err := db.txm.Abort(tx); err != nil {
		return err
	}
	db.aborts.Add(1)
	return nil
}

// Abort rolls tx back. The abort record needs no flush.
func (db *DB) Abort(tx *txn.Tx, at simclock.Time) (simclock.Time, error) {
	if !tx.ReadOnly() {
		db.walw.Append(&wal.Record{Type: wal.RecAbort, Tx: tx.ID})
	}
	if err := db.txm.Abort(tx); err != nil {
		return at, err
	}
	db.aborts.Add(1)
	return at, nil
}

// Tick drives time-based maintenance; callers invoke it as their virtual
// clock advances (the TPC-C driver does so between transactions).
func (db *DB) Tick(at simclock.Time) (simclock.Time, error) {
	if db.replica.Load() {
		// GC/vacuum and checkpoints append WAL records; a replica's log only
		// ever receives the primary's bytes. Maintenance resumes at promote.
		return at, nil
	}
	t := at
	db.mu.Lock()
	runBg := db.opts.Policy == PolicyT1 && t.Sub(db.lastBg) >= bgWriterInterval
	if runBg {
		db.lastBg = t
	}
	runCkpt := t.Sub(db.lastCkpt) >= checkpointInterval
	if runCkpt {
		db.lastCkpt = t
	}
	maintInterval := vacuumInterval
	if db.opts.Kind == KindSIAS {
		maintInterval = gcInterval
	}
	runMaint := t.Sub(db.lastMaint) >= maintInterval
	if runMaint {
		db.lastMaint = t
	}
	tabs := append([]*Table(nil), db.order...)
	db.mu.Unlock()

	var err error
	if runBg {
		// Background writer (threshold t1): seal + flush append pages,
		// then sweep other dirty pages.
		for _, tab := range tabs {
			if t, err = tab.seal(t, true); err != nil {
				return t, err
			}
		}
		// PostgreSQL's bgwriter_lru_maxpages default caps each round.
		_, t, err = db.pool.SweepDirty(t, 100)
		if err != nil {
			return t, err
		}
	}
	if runCkpt {
		t, err = db.Checkpoint(t)
		if err != nil {
			return t, err
		}
	}
	if runMaint {
		t, err = db.RunMaintenance(t)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// Checkpoint seals append pages (threshold t2) and flushes every dirty page
// after forcing the WAL.
func (db *DB) Checkpoint(at simclock.Time) (simclock.Time, error) {
	if db.replica.Load() {
		// Flush-only: persist what replay produced, but append no checkpoint
		// record — the primary's own RecCheckpoint arrives via the stream
		// (redo flushes this side's pages when it does, keeping the redo point
		// it names valid here too).
		t, err := db.walw.Flush(at, db.walw.NextLSN())
		if err != nil {
			return t, err
		}
		return db.pool.FlushAll(t)
	}
	db.mu.Lock()
	tabs := append([]*Table(nil), db.order...)
	db.mu.Unlock()
	t := at
	var err error
	for _, tab := range tabs {
		if t, err = tab.seal(t, false); err != nil {
			return t, err
		}
	}
	// Everything logged so far will be on disk once FlushAll returns, so
	// recovery may start heap redo at this LSN — unless a pinned page
	// stayed dirty, in which case the checkpoint conservatively keeps the
	// full-replay redo point.
	redoLSN := db.walw.NextLSN()
	t, err = db.walw.Flush(t, redoLSN)
	if err != nil {
		return t, err
	}
	t, err = db.pool.FlushAll(t)
	if err != nil {
		return t, err
	}
	if db.pool.DirtyCount() > 0 {
		redoLSN = 0
	}
	db.walw.Append(&wal.Record{Type: wal.RecCheckpoint, Aux: uint64(redoLSN)})
	return t, nil
}

// gcHorizon is the horizon GC and vacuum reclaim under: the transaction
// manager's (which live AS OF snapshots pin), held back a further GCRetention
// ids so recently issued snapshot tokens stay resolvable without a live pin.
func (db *DB) gcHorizon() txn.ID {
	horizon := db.txm.Horizon()
	if r := txn.ID(db.opts.GCRetention); r > 0 {
		if horizon > r {
			return horizon - r
		}
		return 1 // ids start at 1: retain every superseded version
	}
	return horizon
}

// RunMaintenance runs GC (SIAS) or vacuum (SI) on every table.
func (db *DB) RunMaintenance(at simclock.Time) (simclock.Time, error) {
	horizon := db.gcHorizon()
	t := at
	var err error
	for _, tab := range db.Tables() {
		if t, err = tab.reclaim(t, horizon); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Stats aggregates engine-wide counters. The struct is the one declaration
// of each counter: the tags (grammar in internal/obs/structs.go) give its
// /metrics family, kind and HELP text, and how shard aggregation treats it,
// so STATS, /metrics, shard.Aggregate and Sub cannot disagree about a field.
type Stats struct {
	Commits int64 `metric:"sias_engine_commits_total,counter" help:"Transactions committed."`
	Aborts  int64 `metric:"sias_engine_aborts_total,counter" help:"Transactions aborted."`
	// ReadOnlyCommits counts the commits (included in Commits) of
	// transactions that wrote nothing: they logged no record and waited for
	// no flush, so group-commit ratios are taken over Commits minus this.
	ReadOnlyCommits int64 `metric:"sias_engine_readonly_commits_total,counter" help:"Committed transactions that wrote nothing: no log record, no flush (included in commits)."`
	// CommitFlushes counts the commit calls that wrote the log themselves —
	// a commit whose record another caller's write carried counts none —
	// plus a cross-shard commit's forced prepare and decide flushes (not the
	// lazy flush that carries a participant's outcome); under concurrency it
	// is less than Commits. CommitBatches counts commits' writes that carried
	// more than one commit record, and CommitMaxBatch the most one carried,
	// so Commits/CommitFlushes is the mean batch size and CommitMaxBatch its
	// high-water mark.
	CommitFlushes  int64 `metric:"sias_engine_commit_flushes_total,counter" help:"WAL flushes issued on behalf of commits (group commit shares them)."`
	CommitBatches  int64 `metric:"sias_engine_commit_batches_total,counter" help:"Commit flushes that covered more than one transaction."`
	CommitMaxBatch int64 `metric:"-,gauge,max"`
	// Prepares counts 2PC participant PREPARE records this engine forced;
	// InDoubtCommits/InDoubtAborts count in-doubt prepared transactions that
	// crash recovery resolved by consulting (or presuming against) the
	// coordinator's decision log.
	Prepares       int64 `metric:"sias_engine_prepares_total,counter" help:"2PC prepare records durably logged as a participant."`
	InDoubtCommits int64 `metric:"sias_engine_indoubt_commits_total,counter" help:"In-doubt transactions recovery resolved to commit via the decision log."`
	InDoubtAborts  int64 `metric:"sias_engine_indoubt_aborts_total,counter" help:"In-doubt transactions recovery resolved to abort (presumed abort)."`
	// The last crash recovery, by phase: Open's analysis pass over the log,
	// Recover's redo pass over it again, and the heap rebuild of the volatile
	// state; RecoverLogBytes is the log they replayed, which each pass reads
	// once. All zero on an engine that did not recover. Shards recover in
	// parallel, so an aggregate keeps the slowest shard's durations.
	RecoverAnalyzeSeconds float64      `metric:"sias_engine_recover_analyze_seconds,gauge,max" help:"Wall time of the last recovery's analysis pass over the log (Open)."`
	RecoverRedoSeconds    float64      `metric:"sias_engine_recover_redo_seconds,gauge,max" help:"Wall time of the last recovery's redo pass over the log."`
	RecoverRebuildSeconds float64      `metric:"sias_engine_recover_rebuild_seconds,gauge,max" help:"Wall time of the last recovery's heap rebuild of the VIDmap, indexes and dead sets."`
	RecoverLogBytes       int64        `metric:"sias_engine_recover_log_bytes,gauge" help:"Log bytes the last recovery replayed (each of its two passes reads them once)."`
	Data                  device.Stats `label:"device=data"`
	WALDevice             device.Stats `label:"device=wal"`
	Pool                  buffer.Stats
	// PoolHitRatio is Pool.HitRatio() precomputed for reports, and
	// PoolPartitions the stripe count the pool actually chose.
	PoolHitRatio   float64 `metric:"sias_pool_hit_ratio,gauge,noagg" help:"Buffer pool hit ratio, hits/(hits+misses)."`
	PoolPartitions int     `metric:"-,gauge"`
	WALPageWrites  int64   `metric:"sias_wal_page_writes_total,counter" help:"WAL pages flushes wrote into, whole or in part."`
	AllocatedPages int64   `metric:"sias_engine_allocated_pages,gauge" help:"Heap pages allocated."`
	// WALDurableLSN is the durable end of the log: what a replication
	// subscriber can ship, and what lag is measured against. A position in
	// one shard's log, so it has no sum.
	WALDurableLSN uint64 `metric:"sias_wal_durable_lsn,gauge,noagg" help:"Durable end of the WAL: what replication can ship."`
	// WALPendingBytes is the log appended but not yet durable: the next
	// flush's work, which a 2PC participant's outcome records wait in until
	// a later flush on the shard (or the lazy one) carries them.
	WALPendingBytes int64 `metric:"sias_wal_pending_bytes,gauge" help:"WAL bytes appended but not yet durable (NextLSN - Durable)."`
	// VMapResidency* count residency-cache probes across all SIAS tables;
	// both stay zero with an unlimited budget (the fast path never counts),
	// which VMapHitRatio reports as 1.0 — fully resident, not 0% hits.
	VMapResidencyHits   int64   `metric:"sias_vidmap_residency_hits_total,counter" help:"VIDmap residency cache hits (0 with an unlimited budget)."`
	VMapResidencyMisses int64   `metric:"sias_vidmap_residency_misses_total,counter" help:"VIDmap residency cache misses, each costing one device page read."`
	VMapHitRatio        float64 `metric:"sias_vidmap_residency_hit_ratio,gauge,noagg" help:"VIDmap residency hit ratio; 1 when the map is fully resident."`
	// IndexLookups / IndexInserts total secondary-index probe and entry
	// counts across all tables; Tables breaks the same figures out per table
	// in creation order.
	IndexLookups int64        `metric:"sias_index_lookups_total,counter" help:"Secondary index probes (point lookups and range scans)."`
	IndexInserts int64        `metric:"sias_index_inserts_total,counter" help:"Secondary index entry inserts, including recovery rebuilds."`
	Tables       []TableStats `label:"table=Name"`
}

// FillRatios recomputes the two derived ratios from the counters beside
// them; they are not summable, so every producer of a Stats (a snapshot, an
// aggregate, a delta) ends with this call.
func (s *Stats) FillRatios() {
	s.PoolHitRatio = s.Pool.HitRatio()
	s.VMapHitRatio = 1.0
	if t := s.VMapResidencyHits + s.VMapResidencyMisses; t > 0 {
		s.VMapHitRatio = float64(s.VMapResidencyHits) / float64(t)
	}
}

// Sub returns the change since before: counters subtracted, gauges as they
// are now, ratios taken over the interval.
func (s Stats) Sub(before Stats) Stats {
	d := obs.Sub(s, before)
	d.FillRatios()
	return d
}

// TableStats reports one table's catalog and index figures.
type TableStats struct {
	Name string
	// Rows is the primary-index entry count: >= live rows, since entries for
	// superseded key epochs and tombstoned items linger until GC/rebuild.
	Rows int64 `metric:"sias_table_rows,gauge" help:"Visible primary index entries per table."`
	// Indexes counts live (non-dropped) secondary indexes — a catalog fact,
	// identical on every shard, so aggregation does not sum it; IndexEntries
	// and IndexInserts sum their entry counts and cumulative inserts.
	Indexes      int64 `metric:"sias_table_indexes,gauge,noagg" help:"Live secondary indexes per table."`
	IndexEntries int64 `metric:"sias_table_index_entries,gauge" help:"Live secondary index entries per table (lazy deletes included until maintenance)."`
	IndexLookups int64 `metric:"-,counter"`
	IndexInserts int64 `metric:"-,counter"`
	// The quantities the paper argues about, per SIAS table (core.Stats;
	// zero on an SI table): versions appended and the append pages they
	// sealed (SealedTuples/PagesSealed is the fill degree), visibility chain
	// walks and the predecessor fetches they cost, and what GC reclaimed,
	// re-appended and dropped.
	Appends       int64 `metric:"sias_table_appends_total,counter" help:"Tuple versions appended (every modification appends one)."`
	PagesSealed   int64 `metric:"sias_table_pages_sealed_total,counter" help:"Append pages sealed, full or at the flush threshold."`
	SealedTuples  int64 `metric:"sias_table_sealed_tuples_total,counter" help:"Tuple versions on sealed append pages (fill degree = sealed_tuples/pages_sealed)."`
	ChainWalks    int64 `metric:"sias_table_chain_walks_total,counter" help:"Visibility chain traversals started."`
	ChainHops     int64 `metric:"sias_table_chain_hops_total,counter" help:"Predecessor versions fetched during chain walks (the cost of SIAS visibility)."`
	GCPages       int64 `metric:"sias_table_gc_pages_total,counter" help:"Append pages reclaimed by GC."`
	GCRelocations int64 `metric:"sias_table_gc_relocations_total,counter" help:"Live entrypoint versions re-appended by GC."`
	GCDiscarded   int64 `metric:"sias_table_gc_discarded_total,counter" help:"Dead versions discarded by GC."`
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	var vmapHits, vmapMisses int64
	var idxLookups, idxInserts int64
	var tables []TableStats
	for _, tab := range db.Tables() {
		ix := tab.ix.Counts()
		cs, h, m := tab.chainStats()
		vmapHits += h
		vmapMisses += m
		idxLookups += ix.Lookups
		idxInserts += ix.Inserts
		tables = append(tables, TableStats{
			Name: tab.name, Rows: ix.PKEntries,
			Indexes: ix.Secondaries, IndexEntries: ix.Entries, IndexLookups: ix.Lookups, IndexInserts: ix.Inserts,
			Appends: cs.Appends, PagesSealed: cs.PagesSealed, SealedTuples: cs.SealedTuples,
			ChainWalks: cs.ChainWalks, ChainHops: cs.ChainHops,
			GCPages: cs.GCPages, GCRelocations: cs.GCRelocations, GCDiscarded: cs.GCDiscarded,
		})
	}
	// Durable before NextLSN: each only grows, so the difference is never
	// negative.
	durable := db.walw.Durable()
	pending := int64(db.walw.NextLSN() - durable)
	st := Stats{
		ReadOnlyCommits: db.roCommits.Load(),

		Commits:        db.commits.Load(),
		Aborts:         db.aborts.Load(),
		CommitFlushes:  db.commitFlushes.Load(),
		CommitBatches:  db.commitBatches.Load(),
		CommitMaxBatch: db.commitMaxBatch.Load(),
		Prepares:       db.prepares.Load(),
		InDoubtCommits: db.inDoubtCommits.Load(),
		InDoubtAborts:  db.inDoubtAborts.Load(),

		RecoverAnalyzeSeconds: time.Duration(db.recoverAnalyzeNs.Load()).Seconds(),
		RecoverRedoSeconds:    time.Duration(db.recoverRedoNs.Load()).Seconds(),
		RecoverRebuildSeconds: time.Duration(db.recoverRebuildNs.Load()).Seconds(),
		RecoverLogBytes:       int64(db.logEnd),

		Data:           db.opts.DataDevice.Stats(),
		WALDevice:      db.opts.WALDevice.Stats(),
		Pool:           db.pool.Stats(),
		PoolPartitions: db.pool.Partitions(),
		WALPageWrites:  db.walw.PageWrites(),
		AllocatedPages: db.alloc.AllocatedPages(),

		WALDurableLSN:   uint64(durable),
		WALPendingBytes: pending,

		VMapResidencyHits:   vmapHits,
		VMapResidencyMisses: vmapMisses,

		IndexLookups: idxLookups,
		IndexInserts: idxInserts,
		Tables:       tables,
	}
	st.FillRatios()
	return st
}

// Tables returns the tables in creation order.
func (db *DB) Tables() []*Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]*Table(nil), db.order...)
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tables[name]
}

// Close checkpoints the database (Section 6: SIAS structures are persisted
// at shutdown; here the durable truth is heap + WAL, from which everything
// is rebuilt, so Close only needs the checkpoint).
func (db *DB) Close(at simclock.Time) (simclock.Time, error) {
	// In-flight prefetch reads must publish before the devices go away.
	db.pool.DrainPrefetch()
	return db.Checkpoint(at)
}
