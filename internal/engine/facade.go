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
// Commit goes through a group-commit batcher. The first caller to arrive
// becomes the leader and drains the queue of every concurrent committer; one
// CommitBatch (one WAL flush) then covers the whole batch, and each caller
// is signalled with its own result. Callers that arrive while a leader is
// flushing are picked up by the leader's next round, so under concurrency M
// commits need far fewer than M flushes.
type Facade struct {
	db *DB

	gcMu   sync.Mutex
	queue  []*commitWaiter
	leader bool

	// batchHist observes the size of every group-commit flush (nil = not
	// collected).
	batchHist *obs.Histogram

	// tracer records group-commit stage spans for sampled commits
	// (CommitTraced); nil disables tracing.
	tracer *obs.Tracer

	// The lazy outcome flush (FinishPrepared): outcomeTo is the end of the
	// newest participant outcome record appended, outcomeArmed whether a
	// timer will flush through it.
	outcomeMu    sync.Mutex
	outcomeTo    wal.LSN
	outcomeArmed bool
}

// SetCommitMetrics attaches the group-commit batch-size histogram, observed
// once per flushed batch. Must be called before the facade is shared
// between goroutines.
func (f *Facade) SetCommitMetrics(batch *obs.Histogram) { f.batchHist = batch }

// SetTracer attaches the distributed tracer used by CommitTraced. Must be
// called before the facade is shared between goroutines.
func (f *Facade) SetTracer(t *obs.Tracer) { f.tracer = t }

type commitWaiter struct {
	tx   *txn.Tx
	err  error
	done chan struct{}

	// Trace context of a sampled commit (zero otherwise): the group-commit
	// stage spans hang off it, and enq timestamps the admission wait.
	tc  obs.SpanContext
	enq time.Time
}

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

// Commit makes tx durable through the group-commit batcher.
func (f *Facade) Commit(tx *txn.Tx) error { return f.CommitTraced(tx, obs.SpanContext{}) }

// CommitTraced is Commit carrying a distributed-trace context. For a
// sampled tc the shared WAL flush is recorded as a span under it, annotated
// with whether this commit led the flush or rode another leader's, and an
// advisory RecTraceCtx WAL record links the commit to its trace in the
// replication stream.
//
// A transaction that wrote nothing never reaches the batcher: nothing in the
// log or on a page names its id, so there is no outcome to make durable and
// it is finished in memory (finishUnlogged) — no record, no flush, no
// waiter, no fsync span.
func (f *Facade) CommitTraced(tx *txn.Tx, tc obs.SpanContext) error {
	if !tx.Wrote() {
		return f.db.finishUnlogged(tx, true)
	}
	w := &commitWaiter{tx: tx, done: make(chan struct{})}
	if f.tracer != nil && tc.Sampled {
		w.tc = tc
		w.enq = time.Now()
	}
	f.gcMu.Lock()
	f.queue = append(f.queue, w)
	if f.leader {
		// A leader is mid-flush; it will drain us in its next round.
		f.gcMu.Unlock()
		<-w.done
		return w.err
	}
	f.leader = true
	for {
		batch := f.queue
		f.queue = nil
		f.gcMu.Unlock()

		if f.batchHist != nil {
			f.batchHist.Observe(float64(len(batch)))
		}

		sampled := false
		txs := make([]*txn.Tx, len(batch))
		for i, b := range batch {
			txs[i] = b.tx
			if b.tc.Sampled {
				sampled = true
				// Advisory trace linkage: rides the batch's commit flush.
				f.db.walw.Append(&wal.Record{Type: wal.RecTraceCtx, Tx: b.tx.ID, Aux: b.tc.TraceID})
			}
		}
		errs := make([]error, len(batch))
		flushStart := time.Now()
		f.db.CommitBatch(txs, errs, 0)
		if sampled {
			f.traceBatch(batch, w, flushStart, time.Now())
		}
		for i, b := range batch {
			b.err = errs[i]
			close(b.done)
		}

		f.gcMu.Lock()
		if len(f.queue) == 0 {
			f.leader = false
			f.gcMu.Unlock()
			break
		}
	}
	<-w.done
	return w.err
}

// traceBatch records the group-commit flush span for every sampled commit
// in a flushed batch. The flush is one shared event: each sampled waiter
// gets its own "fsync" span over the same window, annotated with the batch
// size and whether it led the flush (leader == the waiter running this
// loop) or rode along. Runs before the waiters are signalled, so every
// span of a commit is retained before its reply leaves the server.
func (f *Facade) traceBatch(batch []*commitWaiter, leader *commitWaiter, flushStart, flushEnd time.Time) {
	for _, b := range batch {
		if !b.tc.Sampled {
			continue
		}
		fs := f.tracer.StartSpanAt(b.tc, "fsync", flushStart)
		fs.Annotate("batch", strconv.Itoa(len(batch)))
		fs.Annotate("shared", strconv.FormatBool(b != leader))
		if !b.enq.IsZero() {
			fs.Annotate("queued_ms", strconv.FormatFloat(float64(flushStart.Sub(b.enq))/float64(time.Millisecond), 'f', 3, 64))
		}
		fs.FinishAt(flushEnd)
	}
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
