package engine

import (
	"maps"

	"sias/internal/simclock"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Two-phase commit primitives. A cross-shard transaction is one txn.Tx per
// touched shard; the shard router drives the protocol, each engine only
// logs and resolves its own side:
//
//   - Prepare makes a participant durable-but-undecided: the sub-transaction's
//     heap records already sit in this WAL, so one flush through the PREPARE
//     record covers both. The CLOG stays in-progress, which is exactly what
//     keeps the prepared writes invisible to every snapshot (Visible requires
//     StatusCommitted) and the write locks held.
//   - Decide logs the coordinator's verdict and, behind it, the outcome
//     record of the coordinator's own sub-transaction. A commit decision is
//     flushed — that one flush is the transaction's commit point and the
//     coordinator's durable outcome; an abort decision rides along unflushed
//     because a missing decision already means abort (presumed abort).
//   - FinishPrepared flips every other participant to the outcome: the
//     lightweight RecCommit/RecAbort outcome record is appended without a
//     flush (recovery re-resolves through the coordinator if it is torn) and
//     the CLOG flips, publishing or discarding the writes atomically.
//
// Recovery (recover.go) completes the picture: a PREPARE with no outcome
// record is in-doubt and is resolved by consulting the coordinator shard's
// decision log — commit if a flushed decision says so, abort otherwise.

// InDoubtResolver answers "did gid commit?" for an in-doubt prepared
// transaction by consulting the coordinator shard's decision log. known is
// false when the resolver cannot see that shard's decisions (the engine then
// presumes abort).
type InDoubtResolver func(gid uint64, coordShard uint32) (commit, known bool)

// SetInDoubtResolver installs the cross-shard decision lookup used by
// Recover. Call between Open and Recover, after every sibling shard's
// Decisions() map has been collected. Without a resolver the engine falls
// back to its own decision log and presumed abort — safe on any shard,
// coordinator or not, because gids fold the coordinating shard into their
// top bits (shard.GlobalID): a mere participant can never hold a decision
// under the transaction's gid.
func (db *DB) SetInDoubtResolver(r InDoubtResolver) { db.resolver = r }

// Decisions returns a fresh copy of the coordinator decisions recorded in
// this engine's WAL, as Open's analysis pass found them: global transaction
// id -> committed. Valid between Open (with Options.Recover) and Recover,
// which drops them.
func (db *DB) Decisions() map[uint64]bool {
	decs := make(map[uint64]bool, len(db.decisions))
	maps.Copy(decs, db.decisions)
	return decs
}

// Prepare logs a PREPARE record for tx and forces the log through it: tx's
// heap records and the prepare become durable in one flush. gid names the
// global transaction, coordShard the shard whose log will hold the decision.
// After a successful Prepare the participant may no longer unilaterally
// abort — only FinishPrepared (or recovery resolution) decides it.
func (db *DB) Prepare(tx *txn.Tx, gid uint64, coordShard uint32, at simclock.Time) (simclock.Time, error) {
	lsn := db.walw.Append(&wal.Record{
		Type: wal.RecPrepare,
		Tx:   tx.ID,
		Aux:  tx.WriteSetFingerprint(),
		Data: wal.EncodePrepareData(gid, coordShard),
	})
	t, err := db.walw.Flush(at, lsn)
	if err != nil {
		return t, err
	}
	db.prepares.Add(1)
	return t, nil
}

// Decide logs the coordinator's decision for gid and applies it to coordTx,
// the coordinator's own participant transaction: RecDecide, then coordTx's
// outcome record, then — for a commit — one flush through both, and only
// then the CLOG flip. The flush is the commit point. Putting the outcome
// behind the decision in the same flush is safe because the log is a
// prefix: a durable RecCommit implies a durable RecDecide, and a tear
// between the two leaves a decided, outcome-less coordinator — the in-doubt
// state recovery already resolves from the decision. A failed flush returns
// with coordTx still prepared (see shard.ErrInDoubt). Abort decisions are
// appended unflushed since presumed abort makes the record advisory.
func (db *DB) Decide(coordTx *txn.Tx, gid uint64, commit bool, at simclock.Time) (simclock.Time, error) {
	db.walw.Append(&wal.Record{
		Type: wal.RecDecide,
		Tx:   coordTx.ID,
		Aux:  gid,
		Data: wal.EncodeDecideData(commit),
	})
	lsn := db.walw.Append(outcomeRecord(coordTx, commit))
	t := at
	if commit {
		var err error
		if t, err = db.walw.Flush(at, lsn); err != nil {
			return t, err
		}
	}
	return t, db.finish(coordTx, commit)
}

// outcomeRecord is the RecCommit/RecAbort that decides tx in the log.
func outcomeRecord(tx *txn.Tx, commit bool) *wal.Record {
	if commit {
		return &wal.Record{Type: wal.RecCommit, Tx: tx.ID}
	}
	return &wal.Record{Type: wal.RecAbort, Tx: tx.ID}
}

// FinishPrepared applies the decision to a prepared participant other than
// the coordinator (Decide finishes that one): the outcome record is appended
// (not flushed — it is recoverable from the coordinator's decision) and the
// CLOG flips, atomically publishing or discarding the writes and releasing
// the transaction's locks.
func (db *DB) FinishPrepared(tx *txn.Tx, commit bool, at simclock.Time) (simclock.Time, error) {
	db.walw.Append(outcomeRecord(tx, commit))
	return at, db.finish(tx, commit)
}

// Prepare logs and forces a participant PREPARE record for tx.
func (f *Facade) Prepare(tx *txn.Tx, gid uint64, coordShard uint32) error {
	_, err := f.db.Prepare(tx, gid, coordShard, 0)
	return err
}

// Decide logs the coordinator decision for gid with coordTx's own outcome
// behind it (flushed iff commit) and finishes coordTx.
func (f *Facade) Decide(coordTx *txn.Tx, gid uint64, commit bool) error {
	_, err := f.db.Decide(coordTx, gid, commit, 0)
	return err
}

// FinishPrepared flips a prepared participant to its decided outcome.
func (f *Facade) FinishPrepared(tx *txn.Tx, commit bool) error {
	_, err := f.db.FinishPrepared(tx, commit, 0)
	return err
}

// NoteTrace appends an advisory RecTraceCtx record linking tx's WAL records
// to a distributed trace id. Unflushed — it rides the next flush on this
// shard (the decide flush on a 2PC coordinator, the outcome-flush round on
// the other participants) — and ignored by recovery and replica apply; only
// a follower's replication loop reads it, to stamp its apply span with the
// originating request's trace.
func (f *Facade) NoteTrace(tx *txn.Tx, traceID uint64) {
	f.db.walw.Append(&wal.Record{Type: wal.RecTraceCtx, Tx: tx.ID, Aux: traceID})
}
