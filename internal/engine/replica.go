package engine

import (
	"fmt"

	"sias/internal/catalog"
	"sias/internal/simclock"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Replica mode turns a DB into a replication follower: the WAL it writes is
// a byte-for-byte mirror of the primary's (received records are re-appended
// verbatim via their deterministic encoding), the heap is maintained by
// replaying those records through the same idempotent redo used by crash
// recovery, and reads run as read-only snapshot transactions pinned at the
// applied horizon. Everything that would append locally-originated records —
// commit/abort records, checkpoint records, extent grants, GC — is
// suppressed while the flag is set; promotion clears it and the engine
// resumes normal operation with the replayed state as its starting point.
//
// Volatile read structures (VIDmap, indexes, FSM, dead sets) are maintained
// incrementally, record by record, mirroring exactly what the primary's live
// write path did when it produced each record (core.Relation.ApplyInsert and
// friends). RefreshReplica is therefore a cheap horizon advance, and apply is
// total: there is no record it has to answer with a rescan of the heap. The
// heap rebuild runs once, in Recover, when a follower restarts — and leaves
// the writers its log has not decided yet where apply expects them.

// SetReplica switches replica mode. Turn it on before any table is created
// on a follower: CreateTable allocates extents, which must come from the
// unlogged scratch region. The flag can stay on across Recover — replayed
// grants go through Restore, which bypasses allocation entirely.
func (db *DB) SetReplica(on bool) {
	db.replica.Store(on)
	db.alloc.SetScratch(on)
	if on {
		next := uint64(db.txm.NextID())
		db.replicaMaxTx.Store(next - 1)
		db.replicaXMax.Store(next)
	}
}

// Replica reports whether the DB is in replica mode.
func (db *DB) Replica() bool { return db.replica.Load() }

// relTable resolves a heap relation id to its table (nil for dropped or
// unknown relations, whose records replay into pages no live table reads).
func (db *DB) relTable(rel uint32) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rels[rel]
}

// ApplyRecord replays one primary WAL record on a follower: redo — the same
// function crash recovery runs the log through — for the CLOG, allocator,
// catalog and heap page, then the fold of the record into the volatile read
// structures, the way the primary's live write path did. The caller is
// responsible for having appended the same bytes to the local log first (or
// right after — the orders are equivalent because redo is idempotent), and for
// serializing applies against reads and refreshes (repl.Follower holds its
// exclusive lock across both).
func (db *DB) ApplyRecord(at simclock.Time, rec *wal.Record) (simclock.Time, error) {
	if db.opts.Kind == KindSI {
		return at, ErrSIBaseline
	}
	if !db.replica.Load() {
		return at, fmt.Errorf("engine: ApplyRecord on a non-replica")
	}
	if rec.Tx > 0 && uint64(rec.Tx) > db.replicaMaxTx.Load() {
		db.replicaMaxTx.Store(uint64(rec.Tx))
	}
	t, err := db.redo(at, rec, true)
	if err != nil {
		return t, err
	}

	switch rec.Type {
	case wal.RecCommit, wal.RecAbort:
		db.applyFinish(rec.Tx, rec.Type == wal.RecCommit)
	case wal.RecDDL:
		// The live write path fills a new index from the rows already there
		// (CreateIndexLogged); so does its replay. Crash recovery replays
		// the same record without this step: its heap rebuild fills every
		// tree anyway.
		if d, derr := catalog.Decode(rec.Data); derr == nil && d.Kind == catalog.KindCreateIndex {
			on := db.Table(d.Table) // redo has just created the index on it
			idx, ierr := on.SecondaryIndex(d.Index)
			if ierr != nil {
				return t, ierr
			}
			if t, err = on.sias.BackfillSecondary(t, idx); err != nil {
				return t, err
			}
		}
	case wal.RecHeapInsert:
		if tab := db.relTable(rec.Rel); tab != nil {
			if t, err = tab.sias.ApplyInsert(t, rec); err != nil {
				return t, err
			}
		}
	case wal.RecHeapDead: // redo admits only whole-block reclaims
		if tab := db.relTable(rec.Rel); tab != nil {
			tab.sias.ApplyBlockFree(rec.TID.Block)
		}
	default:
		// Prepare, decide, extent grants, checkpoints and trace context
		// change nothing a read can see. A prepared transaction's writes stay
		// invisible (its CLOG entry stays in-progress) until the participant's
		// outcome arrives as an ordinary RecCommit/RecAbort; while it follows,
		// the follower never resolves in-doubt state itself — decisions are the
		// primary's, and the primary's own recovery appends the missing outcome
		// records into the stream. Only Promote resolves, from the decisions
		// in the mirrored logs.
		return t, nil
	}
	db.replicaDirty.Store(true)
	return t, nil
}

// applyFinish resolves one transaction's outcome against the tracked writes
// of every table: entrypoints swing back on abort, superseded predecessors
// queue for GC on commit.
func (db *DB) applyFinish(id txn.ID, committed bool) {
	for _, tab := range db.Tables() {
		tab.sias.ApplyFinish(id, committed)
	}
}

// RefreshReplica publishes everything applied so far to new read snapshots: a
// cheap horizon advance — fast-forward the id allocator, move the read horizon
// past the highest applied transaction, and drain the pending-dead queue. The
// repl.Follower calls this with all applies excluded.
func (db *DB) RefreshReplica(at simclock.Time) (simclock.Time, error) {
	if db.opts.Kind == KindSI {
		return at, ErrSIBaseline
	}
	if !db.replica.Load() {
		return at, fmt.Errorf("engine: RefreshReplica on a non-replica")
	}
	maxTx := db.replicaMaxTx.Load()
	db.txm.SetNextID(txn.ID(maxTx + 1))
	db.replicaXMax.Store(maxTx + 1)
	db.replicaDirty.Store(false)

	// Bound the pending-dead queue the replicated commits grow: promote
	// entries no snapshot can reach into the per-block dead sets, exactly as
	// primary GC would, respecting live read pins and the AS OF retention
	// window.
	horizon := db.gcHorizon()
	for _, tab := range db.Tables() {
		tab.sias.PromoteDead(horizon)
	}
	return at, nil
}

// ReplicaDirty reports whether records were applied since the last refresh.
func (db *DB) ReplicaDirty() bool { return db.replicaDirty.Load() }

// Promote leaves replica mode. Transactions still undecided when the stream
// ended will never get their outcome record, so the promoted primary gives
// them one, as its own crash recovery would (finishUndecided), rather than
// serve, or block updates behind, versions of transactions that can no longer
// commit: a coordinator commits from its own decision, a prepared participant
// iff the installed resolver finds its coordinator's commit decision — the
// primary acknowledges a cross-shard commit before the participants' outcome
// records are durable, so the decision may be all a follower has — and
// everything else aborts.
// The id allocator already sits past every replayed transaction
// (RefreshReplica fast-forwards it), so new local transactions sort after the
// primary's history. The WAL writer keeps appending where the mirrored log
// ends, as the primary's would have.
func (db *DB) Promote(at simclock.Time) (simclock.Time, error) {
	t, err := db.RefreshReplica(at)
	if err != nil {
		return t, err
	}
	db.SetReplica(false)
	return db.finishUndecided(t)
}
