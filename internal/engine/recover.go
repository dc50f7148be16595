package engine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sias/internal/simclock"
	"sias/internal/txn"
	"sias/internal/wal"
)

// analyze is Open's pass over an existing log: it keeps the last
// checkpoint's redo point and the coordinator decisions, which the sibling
// shards' resolvers need before any shard recovers, and nothing of the
// records themselves — Recover reads them again.
func (db *DB) analyze(_ wal.LSN, rec wal.Record) error {
	switch rec.Type {
	case wal.RecCheckpoint:
		db.redoFrom = wal.LSN(rec.Aux)
	case wal.RecDecide:
		noteDecision(db.decisions, &rec)
	}
	return nil
}

// noteDecision records a RecDecide in decs: gid -> committed.
func noteDecision(decs map[uint64]bool, rec *wal.Record) {
	if commit, err := wal.DecodeDecideData(rec.Data); err == nil {
		decs[rec.Aux] = commit
	}
}

// errLogEnd stops the redo pass at the end Open's analysis found.
var errLogEnd = errors.New("engine: redo reached the analysed log end")

// Recover replays the WAL into the data pages and rebuilds every table's
// volatile structures. Call it after recreating the bootstrap schema
// (CreateTable in the original order) on a DB opened with Options.Recover;
// tables and indexes created through the logged DDL path need no such help —
// their RecDDL records replay with the rest of the log.
//
// It is one pass over the log in log order, every record handed to redo —
// the function a follower applies a shipped record with — as it is decoded,
// then one rebuild of the volatile state from the heap (Section 6 of the
// paper: the VIDmap is not checkpointed, so the heap is where it comes from),
// then, on a primary, an outcome for every transaction the log ends without
// one for. Heap records below the last checkpoint's redo point skip their
// page redo: those pages are on the device already. The pass reads the log
// device again, so recovery holds one scan buffer of log rather than the
// log, and stops at the end Open found: what the writer, continuing the log
// at that end, has appended and flushed since (a bootstrap extent grant, a
// flush forced by an eviction) is not replayed.
func (db *DB) Recover(at simclock.Time) (simclock.Time, error) {
	if !db.opts.Recover {
		return at, fmt.Errorf("engine: Recover on a DB opened without Options.Recover")
	}
	maxTx := txn.ID(0)
	t := at
	start := time.Now()
	_, err := wal.Scan(db.opts.WALDevice, func(lsn wal.LSN, rec wal.Record) error {
		if lsn >= db.logEnd {
			return errLogEnd
		}
		maxTx = max(maxTx, rec.Tx)
		var err error
		t, err = db.redo(t, &rec, lsn >= db.redoFrom)
		return err
	})
	if err != nil && !errors.Is(err, errLogEnd) {
		return t, err
	}
	db.txm.SetNextID(maxTx + 1)
	db.recoverRedoNs.Store(int64(time.Since(start)))

	start = time.Now()
	if t, err = db.rebuildVolatile(t); err != nil {
		return t, err
	}
	db.recoverRebuildNs.Store(int64(time.Since(start)))
	// A replica decides nothing: outcomes are the primary's to make and arrive
	// through the stream, and appending locally would fork the byte-mirrored
	// log. The rebuild left its undecided writers where ApplyRecord expects
	// them.
	if !db.replica.Load() {
		if t, err = db.finishUndecided(t); err != nil {
			return t, err
		}
	}
	db.decisions = nil
	return t, nil
}

// preparedTxn is a 2PC participant redo has seen a PREPARE for, or a
// coordinator it has seen a commit decision for, and no outcome record yet.
type preparedTxn struct {
	gid   uint64
	coord uint32 // the shard holding the decision; unused when decided
	// decided: the record was the coordinator's own commit decision, so its
	// outcome is known without consulting any decision map.
	decided bool
}

// redo replays one WAL record: its effect on the control state every later
// record is read against (CLOG, prepared participants, extent map, catalog)
// and, for a heap record, on the heap high-water marks and — with pages set —
// on the data page itself. Crash recovery feeds it each record as its redo
// pass decodes it and a follower each record the primary ships, both in log
// order, which is all the ordering it needs: a relation's extent grants
// precede its first page and its DDL, and DDL precedes the heap records of
// the table it creates.
//
// Redo is physiological and idempotent:
//
//   - RecCommit / RecAbort decide a transaction in the CLOG;
//   - RecPrepare leaves a participant prepared until its outcome record, and
//     so does a commit RecDecide its coordinator: the decision is the
//     coordinator's prepare, and the coordinator's RecCommit follows it in
//     the same flush. A log torn between the two still commits the
//     coordinator, in finishUndecided. An abort decision (older logs hold
//     them) replays nothing: presumed abort already gives that outcome;
//   - RecAllocExtent restores the space-manager mapping;
//   - RecDDL re-creates (or drops) the table or index it names;
//   - RecHeapInsert re-places a tuple at its exact slot; slots already
//     present (the page reached the device before the crash) are skipped;
//   - RecHeapDead with slot 0xFFFF marks a whole block reclaimed by GC: the
//     page is reset so a later reuse of the block replays onto a clean page.
//     SIAS logs no other kind of dead record and no RecHeapOverwrite — those
//     are the SI baseline's in-place edits — so redo rejects both by name;
//   - RecCheckpoint: the primary logged it once every record before the redo
//     point it names was on ITS device. A follower makes that true of its own
//     device — flushes its log and its data pages — so that its restart may
//     trust the redo point too. A primary replaying its own log has nothing
//     to do: the record was only written once the promise held.
func (db *DB) redo(t simclock.Time, rec *wal.Record, pages bool) (simclock.Time, error) {
	switch rec.Type {
	case wal.RecCommit, wal.RecAbort:
		st := txn.StatusAborted
		if rec.Type == wal.RecCommit {
			st = txn.StatusCommitted
		}
		db.txm.CLOG().Set(rec.Tx, st)
		delete(db.prepared, rec.Tx)
	case wal.RecPrepare:
		gid, coord, err := wal.DecodePrepareData(rec.Data)
		if err != nil {
			return t, fmt.Errorf("engine: redo prepare record tx %d: %w", rec.Tx, err)
		}
		db.prepared[rec.Tx] = preparedTxn{gid: gid, coord: coord}
	case wal.RecDecide:
		if commit, err := wal.DecodeDecideData(rec.Data); err == nil && commit {
			db.prepared[rec.Tx] = preparedTxn{gid: rec.Aux, decided: true}
		}
	case wal.RecAllocExtent:
		db.alloc.Restore(rec.Rel, uint32(rec.Aux), int64(rec.Aux>>32))
	case wal.RecDDL:
		return db.applyDDL(t, rec)
	case wal.RecCheckpoint:
		if pages && db.replica.Load() {
			return db.Checkpoint(t) // on a replica: flush log and pages, log nothing
		}
	case wal.RecHeapInsert, wal.RecHeapOverwrite, wal.RecHeapDead:
		if rec.Type == wal.RecHeapOverwrite || (rec.Type == wal.RecHeapDead && rec.TID.Slot != wholeBlock) {
			return t, fmt.Errorf("engine: redo %s rel %d %v: an in-place SI record, which SIAS never logs", rec.Type, rec.Rel, rec.TID)
		}
		// Block high-water marks come from the whole log: blocks written
		// before the redo point exist on the device without being replayed.
		db.noteHeapBlock(rec)
		if pages {
			return db.redoHeap(t, rec)
		}
	}
	return t, nil
}

// finishUndecided gives an outcome to every transaction replay has left
// without one, when no more log is coming: the end of a primary's recovery
// and the promotion of a follower. A prepared 2PC participant commits iff its
// coordinator's decision says so — a coordinator registered by its own commit
// decision always does; everything else aborts — presumed abort for a
// participant nobody vouches for, plain rollback for a writer that never
// reached its commit record. Consulting this shard's OWN decisions first is
// safe on every shard — coordinator or not — because gids fold the
// coordinating shard's index into their top bits (shard.GlobalID): a mere
// participant can never hold a decision under the transaction's gid, and two
// coordinators can never have issued the same gid. The installed resolver
// covers decisions in a sibling shard's log. (A promotion has no decisions
// of its own — they went with Recover, or a follower never kept them — so
// repl.Follower installs a resolver over its sibling shards' mirrored logs
// first: a participant whose outcome record the primary never made durable
// still commits when its coordinator's decision did.)
//
// Each outcome is appended to the log, so that followers of this engine and
// its own next recovery find the transaction decided, and then replayed like
// a shipped one: redo for the CLOG, applyFinish for the tracked writes.
func (db *DB) finishUndecided(t simclock.Time) (simclock.Time, error) {
	var ids []txn.ID
	for id := range db.prepared {
		ids = append(ids, id)
	}
	for _, tab := range db.Tables() {
		ids = append(ids, tab.sias.ReplayInFlight()...)
	}
	slices.Sort(ids)
	inDoubt := len(db.prepared) > 0
	for _, id := range slices.Compact(ids) {
		commit := false
		if p, ok := db.prepared[id]; ok {
			commit = p.decided
			known := p.decided
			if !known {
				commit, known = db.decisions[p.gid]
			}
			if !known && db.resolver != nil {
				commit, known = db.resolver(p.gid, p.coord)
			}
			commit = commit && known
			if commit {
				db.inDoubtCommits.Add(1)
			} else {
				db.inDoubtAborts.Add(1)
			}
		}
		rec := wal.Record{Type: wal.RecAbort, Tx: id}
		if commit {
			rec.Type = wal.RecCommit
		}
		db.walw.Append(&rec)
		if _, err := db.redo(t, &rec, false); err != nil {
			return t, err
		}
		db.applyFinish(id, commit)
	}
	if !inDoubt {
		return t, nil // a rollback changes nothing a reader sees: it rides the next flush
	}
	// Force an in-doubt resolution before the engine serves. Followers ship
	// only durable bytes and flip visibility only on a shipped outcome record
	// — the invariant the commit path's final flush round protects — so
	// leaving the resolution unflushed would let a zero-lag follower of an
	// otherwise idle shard serve the pre-resolution state indefinitely.
	t, err := db.walw.Flush(t, db.walw.NextLSN())
	if err != nil {
		return t, fmt.Errorf("engine: flush in-doubt resolution outcomes: %w", err)
	}
	return t, nil
}

// wholeBlock is the slot of a RecHeapDead that reclaims its whole block.
const wholeBlock = ^uint16(0)

// noteHeapBlock advances the per-relation heap high-water mark for a heap
// record (whole-block GC markers carry no block growth).
func (db *DB) noteHeapBlock(rec *wal.Record) {
	db.mu.Lock()
	if hw := db.maxBlockRel[rec.Rel]; rec.TID.Block+1 > hw && rec.TID.Slot != wholeBlock {
		db.maxBlockRel[rec.Rel] = rec.TID.Block + 1
	}
	db.mu.Unlock()
}

// redoHeap applies one heap record — an insert or a whole-block reclaim — to
// the data pages. It is idempotent — slots already present are skipped —
// which is what lets both crash recovery and the replication follower drive
// it.
//
// The insert into a block's slot 0 formats the block's page without reading
// it: whatever the device holds there — nothing, the block's first slots, or
// a life the block had before GC reclaimed it — every later slot's record
// follows this one in the log, so redo rebuilds the page from here on either
// way. A page already in the pool is used as it is (Pool.Get reads only a
// page it does not hold): a reclaim reset it, or this record was applied
// before.
func (db *DB) redoHeap(t simclock.Time, rec *wal.Record) (simclock.Time, error) {
	devPage, err := db.alloc.DevicePage(rec.Rel, rec.TID.Block)
	if err != nil {
		return t, fmt.Errorf("engine: redo %s rel %d block %d: %w", rec.Type, rec.Rel, rec.TID.Block, err)
	}
	format := rec.Type == wal.RecHeapInsert && rec.TID.Slot == 0
	f, t2, err := db.pool.Get(t, devPage, format)
	t = t2
	if err != nil {
		return t, err
	}
	pg := f.Data
	if !pg.Initialized() || pg.RelID() != rec.Rel {
		pg.Init(rec.Rel, 0)
	}
	dirty := false
	switch rec.Type {
	case wal.RecHeapInsert:
		slot := int(rec.TID.Slot)
		switch {
		case pg.NumSlots() > slot:
			// Already applied (page was flushed before the crash).
		case pg.NumSlots() == slot:
			if _, ierr := pg.Insert(rec.Data); ierr != nil {
				db.pool.Release(f, false)
				return t, fmt.Errorf("engine: redo insert %v: %v", rec.TID, ierr)
			}
			dirty = true
		default:
			db.pool.Release(f, false)
			return t, fmt.Errorf("engine: redo insert %v: slot gap (page has %d slots)", rec.TID, pg.NumSlots())
		}
	case wal.RecHeapDead:
		// Whole block reclaimed by GC: reset the page so later appends into
		// the reused block replay cleanly.
		pg.Init(rec.Rel, pg.Flags())
		dirty = true
	}
	db.pool.Release(f, dirty)
	return t, nil
}

// rebuildVolatile reconstructs every table's VIDmap/indexes/FSM from the
// heap, using the redo high-water marks as block counts. Recover is its one
// caller; everything after a restart is incremental (ApplyRecord).
func (db *DB) rebuildVolatile(at simclock.Time) (simclock.Time, error) {
	t := at
	for _, tab := range db.Tables() {
		db.mu.Lock()
		blocks := db.maxBlockRel[tab.heapID]
		db.mu.Unlock()
		var err error
		if t, err = tab.sias.RebuildFromHeap(t, blocks); err != nil {
			return t, fmt.Errorf("engine: rebuild %s: %w", tab.name, err)
		}
	}
	return t, nil
}
