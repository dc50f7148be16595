package engine

import (
	"strconv"
	"sync"
	"time"

	"sias/internal/obs"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Facade is the concurrency-safe front door to a DB for many goroutines.
//
// The engine substrates are individually thread-safe and take and return a
// virtual-time instant, which only the simulator reads. A served engine has
// no clock: every facade method calls the engine at the zero instant and
// drops the time it gets back, so nothing above it (shard, repl, server)
// knows virtual time exists. Time-paced maintenance (DB.Tick: background
// writer, checkpoints, GC and vacuum) therefore does not run here; the only
// checkpoint a served engine takes is the one its owner asks for.
//
// Commit calls the engine's commit directly: concurrent committers share
// log writes at the WAL writer's flush gate (wal.Writer.FlushCommits), the
// one group commit every flush goes through.
type Facade struct {
	db *DB

	// batchHist observes, per commit that wrote the log, how many commit
	// records its write carried (nil = not collected).
	batchHist *obs.Histogram

	// tracer records the flush span of sampled commits (CommitTraced); nil
	// disables tracing.
	tracer *obs.Tracer

	// The lazy outcome flush (FinishPrepared): outcomeTo is the end of the
	// newest participant outcome record appended, outcomeArmed whether a
	// timer will flush through it.
	outcomeMu    sync.Mutex
	outcomeTo    wal.LSN
	outcomeArmed bool
}

// SetCommitMetrics attaches the group-commit batch-size histogram, observed
// once per commit that wrote the log. Must be called before the facade is
// shared between goroutines.
func (f *Facade) SetCommitMetrics(batch *obs.Histogram) { f.batchHist = batch }

// SetTracer attaches the distributed tracer used by CommitTraced. Must be
// called before the facade is shared between goroutines.
func (f *Facade) SetTracer(t *obs.Tracer) { f.tracer = t }

// NewFacade wraps db for concurrent use.
func NewFacade(db *DB) *Facade {
	return &Facade{db: db}
}

// DB exposes the wrapped engine (stats, checkpoints, recovery).
func (f *Facade) DB() *DB { return f.db }

// FlushWAL forces the entire pending log to the device. A follower uses it
// to make a mirrored batch durable before advertising it as applied, and the
// 2PC crash matrix to force an outcome record before its injected crash; a
// committing participant's outcome records do not need it (FinishPrepared).
func (f *Facade) FlushWAL() error {
	_, err := f.db.walw.Flush(0, f.db.walw.NextLSN())
	return err
}

// ApplyRecord replays one mirrored primary record on a follower (see
// DB.ApplyRecord).
func (f *Facade) ApplyRecord(rec *wal.Record) error {
	_, err := f.db.ApplyRecord(0, rec)
	return err
}

// RefreshReplica publishes everything applied so far to new snapshots (see
// DB.RefreshReplica).
func (f *Facade) RefreshReplica() error {
	_, err := f.db.RefreshReplica(0)
	return err
}

// Promote flips a follower's engine writable (see DB.Promote).
func (f *Facade) Promote() error {
	_, err := f.db.Promote(0)
	return err
}

// Begin starts a transaction.
func (f *Facade) Begin() *txn.Tx { return f.db.Begin() }

// Commit makes tx durable (see DB.Commit).
func (f *Facade) Commit(tx *txn.Tx) error { return f.CommitTraced(tx, obs.SpanContext{}) }

// CommitTraced is Commit carrying a distributed-trace context. For a
// sampled tc the commit's flush is recorded as an "fsync" span under it,
// annotated with the commit records its own write carried (batch) and
// whether another caller's write carried its record instead (shared), and
// an advisory RecTraceCtx WAL record links the commit to its trace in the
// replication stream.
//
// A transaction that wrote nothing never reaches the log: nothing in the
// log or on a page names its id, so there is no outcome to make durable and
// it is finished in memory (finishUnlogged) — no record, no flush, no fsync
// span.
func (f *Facade) CommitTraced(tx *txn.Tx, tc obs.SpanContext) error {
	if !tx.Wrote() {
		return f.db.finishUnlogged(tx, true)
	}
	sampled := f.tracer != nil && tc.Sampled
	var start time.Time
	if sampled {
		// Advisory trace linkage: rides the commit's flush.
		f.db.walw.Append(&wal.Record{Type: wal.RecTraceCtx, Tx: tx.ID, Aux: tc.TraceID})
		start = time.Now()
	}
	_, n, err := f.db.commit(tx, 0)
	if n > 0 && f.batchHist != nil {
		f.batchHist.Observe(float64(n))
	}
	if sampled {
		fs := f.tracer.StartSpanAt(tc, "fsync", start)
		fs.Annotate("batch", strconv.Itoa(n))
		fs.Annotate("shared", strconv.FormatBool(n == 0))
		fs.Finish()
	}
	return err
}

// Abort rolls tx back; like Commit it logs nothing for a transaction that
// wrote nothing.
func (f *Facade) Abort(tx *txn.Tx) error {
	if !tx.Wrote() {
		return f.db.finishUnlogged(tx, false)
	}
	_, err := f.db.Abort(tx, 0)
	return err
}

// Checkpoint seals append pages and flushes every dirty page (see
// DB.Checkpoint).
func (f *Facade) Checkpoint() error {
	_, err := f.db.Checkpoint(0)
	return err
}

// Stats returns engine-wide counters.
func (f *Facade) Stats() Stats { return f.db.Stats() }

// The facade's row methods are thin adapters over Table's view path for
// callers that want whole rows: each decodes the view it reads (View.Row),
// and Update encodes the row mutate returns.

// Get returns the row of key in tab visible to tx.
func (f *Facade) Get(tab *Table, tx *txn.Tx, key int64) (tuple.Row, error) {
	v, _, err := tab.Get(tx, 0, key)
	if err != nil {
		return nil, err
	}
	return v.Row(), nil
}

// Insert stores row in tab under its primary key.
func (f *Facade) Insert(tab *Table, tx *txn.Tx, row tuple.Row) error {
	_, err := tab.Insert(tx, 0, row)
	return err
}

// Update applies mutate to the visible row of key in tab. The row mutate
// gets aliases the version's private copy: mutate may return its values in
// the new row but must not write into its bytes columns.
func (f *Facade) Update(tab *Table, tx *txn.Tx, key int64, mutate func(tuple.Row) (tuple.Row, error)) error {
	_, err := tab.Update(tx, 0, key, func(old tuple.View, dst []byte) ([]byte, error) {
		row, err := mutate(old.Row())
		if err != nil {
			return nil, err
		}
		return tab.schema.AppendRow(dst, row)
	})
	return err
}

// Delete removes the row of key in tab.
func (f *Facade) Delete(tab *Table, tx *txn.Tx, key int64) error {
	_, err := tab.Delete(tx, 0, key)
	return err
}

// RangeByKey visits visible rows of tab with lo <= primary key <= hi.
func (f *Facade) RangeByKey(tab *Table, tx *txn.Tx, lo, hi int64, fn func(tuple.Row) bool) error {
	_, err := tab.RangeByKey(tx, 0, lo, hi, func(v tuple.View) bool { return fn(v.Row()) })
	return err
}

// RangeBySecondary visits visible rows of tab with lo <= indexed value <= hi
// through secondary index idx, in index order (a point lookup: lo == hi).
func (f *Facade) RangeBySecondary(tab *Table, tx *txn.Tx, idx int, lo, hi int64, fn func(indexKey int64, row tuple.Row) bool) error {
	_, err := tab.RangeBySecondary(tx, 0, idx, lo, hi, func(k int64, v tuple.View) bool { return fn(k, v.Row()) })
	return err
}

// SnapshotToken returns a stable AS OF snapshot token (see DB.SnapshotToken).
func (f *Facade) SnapshotToken() uint64 { return f.db.SnapshotToken() }

// BeginAt starts a read-only transaction pinned at an AS OF snapshot token.
func (f *Facade) BeginAt(token uint64) *txn.Tx { return f.db.BeginReadOnlyAt(token) }

// CreateTable creates a table through the logged DDL path.
func (f *Facade) CreateTable(name string, schema *tuple.Schema, pkCol string) (*Table, error) {
	tab, _, err := f.db.CreateTableLogged(0, name, schema, pkCol)
	return tab, err
}

// DropTable drops a table through the logged DDL path.
func (f *Facade) DropTable(name string) error {
	_, err := f.db.DropTableLogged(0, name)
	return err
}

// CreateIndex creates a named column index through the logged DDL path.
func (f *Facade) CreateIndex(table, index, column string) error {
	_, err := f.db.CreateIndexLogged(0, table, index, column)
	return err
}

// DropIndex drops a named index through the logged DDL path.
func (f *Facade) DropIndex(table, index string) error {
	_, err := f.db.DropIndexLogged(0, table, index)
	return err
}
