package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"sias/internal/simclock"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Two-phase commit primitives. A cross-shard transaction is one txn.Tx per
// touched shard; the shard router drives the protocol, each engine only
// logs and resolves its own side:
//
//   - Prepare makes a participant other than the coordinator
//     durable-but-undecided: the sub-transaction's heap records already sit in
//     this WAL, so one flush through the PREPARE record covers both. The CLOG
//     stays in-progress, which is exactly what keeps the prepared writes
//     invisible to every snapshot (Visible requires StatusCommitted) and the
//     write locks held.
//   - Decide logs the coordinator's commit decision and, behind it, the
//     commit record of the coordinator's own sub-transaction, and flushes
//     both: that one flush is the transaction's commit point and carries the
//     coordinator's heap records with it. The coordinator never prepares —
//     its decision record is its prepare — and there is no abort decision: a
//     missing decision already means abort (presumed abort), so a
//     coordinator whose participants failed to prepare simply aborts.
//   - FinishPrepared flips every other participant to the outcome: the
//     lightweight RecCommit/RecAbort outcome record is appended without a
//     flush and the CLOG flips, publishing or discarding the writes
//     atomically. Recovery never needs the record (it re-resolves an
//     outcome-less PREPARE through the coordinator's decision), only a
//     follower does, and only eventually: the shard's next flush carries it,
//     or, on a shard with no other flush within outcomeFlushDelay, the lazy
//     flush the facade arms for it. So n written shards cost n forced flushes
//     on the acknowledgement path (n-1 prepares and the decide), and the n-1
//     outcome records ride later ones.
//
// Recovery (recover.go) completes the picture: a PREPARE, or a coordinator's
// commit decision, with no outcome record behind it is in-doubt and is
// resolved by consulting the coordinator shard's decision log — commit if a
// durable decision says so, abort otherwise.

// ErrInDoubt reports a commit decision whose flush failed after the decide
// record was appended: a torn flush may still have made the decision durable,
// so the outcome is neither commit nor abort until restart recovery reads the
// log back. The coordinator's sub-transaction stays undecided and the
// participants prepared (writes invisible, locks held); callers must not
// assume either outcome.
var ErrInDoubt = errors.New("engine: cross-shard commit outcome in doubt")

// InDoubtResolver answers "did gid commit?" for an in-doubt prepared
// transaction by consulting the coordinator shard's decision log. known is
// false when the resolver cannot see that shard's decisions (the engine then
// presumes abort).
type InDoubtResolver func(gid uint64, coordShard uint32) (commit, known bool)

// SetInDoubtResolver installs the cross-shard decision lookup used by
// Recover and Promote: call it between Open and Recover, after every sibling
// shard's Decisions() map has been collected, or before Promote, over the
// sibling replicas' LoggedDecisions. Without a resolver the engine falls
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

// InDoubtCoordinators returns the shards holding the decisions this
// engine's prepared participants still wait on: those whose PREPARE the log
// holds without an outcome record. On a follower that is every participant
// whose outcome the primary had not made durable — possibly long after the
// coordinator's decision was.
func (db *DB) InDoubtCoordinators() []uint32 {
	var coords []uint32
	for _, p := range db.prepared {
		if !p.decided {
			coords = append(coords, p.coord)
		}
	}
	slices.Sort(coords)
	return slices.Compact(coords)
}

// LoggedDecisions reads every coordinator decision off this engine's log
// device: global transaction id -> committed. A follower keeps no decisions
// in memory — its participants' outcomes arrive in the stream — so a
// promotion that finds a participant still in doubt reads them here, in the
// mirrored log of the participant's coordinator shard.
func (db *DB) LoggedDecisions() (map[uint64]bool, error) {
	decs := map[uint64]bool{}
	_, err := wal.Scan(db.opts.WALDevice, func(_ wal.LSN, rec wal.Record) error {
		if rec.Type == wal.RecDecide {
			noteDecision(decs, &rec)
		}
		return nil
	})
	return decs, err
}

// Prepare logs a PREPARE record for tx, a participant other than the
// coordinator, and forces the log through it: tx's heap records and the
// prepare become durable in one flush. gid names the global transaction,
// coordShard the shard whose log will hold the decision. After a successful
// Prepare the participant may no longer unilaterally abort — only
// FinishPrepared (or recovery resolution) decides it.
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

// Decide commits coordTx, the coordinator's own sub-transaction, as the
// commit point of gid: RecDecide, then coordTx's RecCommit, then one flush
// through both — which carries coordTx's heap records too, since they precede
// the decision in the same log — and only then the CLOG flip. Putting the
// outcome behind the decision in the same flush is safe because the log is a
// prefix: a durable RecCommit implies a durable RecDecide, and a tear between
// the two leaves a decided, outcome-less coordinator, which redo registers as
// prepared and finishUndecided commits from the decision. A failed flush
// returns ErrInDoubt with coordTx still undecided.
func (db *DB) Decide(coordTx *txn.Tx, gid uint64, at simclock.Time) (simclock.Time, error) {
	db.walw.Append(&wal.Record{
		Type: wal.RecDecide,
		Tx:   coordTx.ID,
		Aux:  gid,
		Data: wal.EncodeDecideData(true),
	})
	t, err := db.walw.Flush(at, db.walw.Append(outcomeRecord(coordTx, true)))
	if err != nil {
		return t, fmt.Errorf("%w: %w", ErrInDoubt, err)
	}
	return t, db.finish(coordTx, true)
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
// the transaction's locks. It returns the LSN just past the outcome record.
func (db *DB) FinishPrepared(tx *txn.Tx, commit bool) (wal.LSN, error) {
	lsn := db.walw.Append(outcomeRecord(tx, commit))
	return lsn, db.finish(tx, commit)
}

// Prepare logs and forces a participant PREPARE record for tx.
func (f *Facade) Prepare(tx *txn.Tx, gid uint64, coordShard uint32) error {
	_, err := f.db.Prepare(tx, gid, coordShard, 0)
	return err
}

// Decide logs and forces the commit decision for gid with coordTx's own
// commit record behind it, and commits coordTx.
func (f *Facade) Decide(coordTx *txn.Tx, gid uint64) error {
	_, err := f.db.Decide(coordTx, gid, 0)
	return err
}

// outcomeFlushDelay is how long a participant's outcome record waits for
// another flush on its shard to carry it before the lazy flush forces one:
// the replication subscriber's poll interval, so a follower of an idle shard
// sees the outcome a poll or two after the commit was acknowledged.
const outcomeFlushDelay = time.Millisecond

// FinishPrepared flips a prepared participant to its decided outcome and
// returns the LSN just past the outcome record it appended. The record is
// not forced: the shard's next flush — a prepare, a group commit or a decide
// — carries it, and the first outcome no flush has carried arms one lazy
// flush, outcomeFlushDelay later, for a shard that has no other.
func (f *Facade) FinishPrepared(tx *txn.Tx, commit bool) (wal.LSN, error) {
	lsn, err := f.db.FinishPrepared(tx, commit)
	f.outcomeMu.Lock()
	f.outcomeTo = max(f.outcomeTo, lsn)
	arm := !f.outcomeArmed
	f.outcomeArmed = true
	f.outcomeMu.Unlock()
	if arm {
		time.AfterFunc(outcomeFlushDelay, f.flushOutcomes)
	}
	return lsn, err
}

// flushOutcomes is the lazy flush FinishPrepared arms: it forces the log
// through the newest outcome record appended so far, a no-op when another
// flush already carried it. A failure is nobody's to report — the
// transactions are committed — so it leaves the bytes pending, and the
// shard's next forced flush retries them and fails its own caller if the
// device is still refusing writes.
func (f *Facade) flushOutcomes() {
	f.outcomeMu.Lock()
	to := f.outcomeTo
	f.outcomeArmed = false
	f.outcomeMu.Unlock()
	_, _ = f.db.walw.Flush(0, to)
}

// NoteTrace appends an advisory RecTraceCtx record linking tx's WAL records
// to a distributed trace id. Unflushed — it rides the next flush on this
// shard (the decide flush on a 2PC coordinator; on the other participants
// whichever flush carries their outcome record) — and ignored by recovery
// and replica apply; only a follower's replication loop reads it, to stamp
// its apply span with the originating request's trace.
func (f *Facade) NoteTrace(tx *txn.Tx, traceID uint64) {
	f.db.walw.Append(&wal.Record{Type: wal.RecTraceCtx, Tx: tx.ID, Aux: traceID})
}
