package engine

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/obs"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Facade is the concurrency-safe front door to a DB for many goroutines.
//
// The engine substrates are individually thread-safe but expect each caller
// to thread a virtual-time cursor through every call. The cursor stops here:
// no method of the facade takes or returns virtual time, so nothing above it
// (shard, repl, server) knows the clock exists. The facade owns that clock
// behind a single sequencer: operations read the current cursor, run
// with a local copy, and publish their completion time back with a CAS-max,
// so virtual time advances monotonically no matter how calls interleave.
//
// Commit goes through a group-commit batcher. The first caller to arrive
// becomes the leader and drains the queue of every concurrent committer; one
// CommitBatch (one WAL flush) then covers the whole batch, and each caller
// is signalled with its own result. Callers that arrive while a leader is
// flushing are picked up by the leader's next round, so under concurrency M
// commits need far fewer than M flushes.
type Facade struct {
	db  *DB
	now atomic.Int64 // virtual clock sequencer (simclock.Time)

	gcMu   sync.Mutex
	queue  []*commitWaiter
	leader bool

	tickMu sync.Mutex // at most one goroutine runs maintenance at a time

	// batchHist observes the size of every group-commit flush (nil = not
	// collected).
	batchHist *obs.Histogram

	// tracer records group-commit stage spans for sampled commits
	// (CommitTraced); nil disables tracing.
	tracer *obs.Tracer
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

// cursor reads the clock sequencer.
func (f *Facade) cursor() simclock.Time {
	return simclock.Time(f.now.Load())
}

// publish advances the sequencer to t if t is later (CAS-max).
func (f *Facade) publish(t simclock.Time) {
	for {
		cur := f.now.Load()
		if int64(t) <= cur || f.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// run executes op against a local cursor and publishes its completion time.
func (f *Facade) run(op func(at simclock.Time) (simclock.Time, error)) error {
	t, err := op(f.cursor())
	f.publish(t)
	return err
}

// FlushWAL forces the entire pending log to the device. 2PC uses it to make
// outcome records durable before acknowledging; a follower, to make a
// mirrored batch durable before advertising it as applied.
func (f *Facade) FlushWAL() error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return f.db.walw.Flush(at, f.db.walw.NextLSN())
	})
}

// ApplyRecord replays one mirrored primary record on a follower (see
// DB.ApplyRecord).
func (f *Facade) ApplyRecord(rec *wal.Record) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return f.db.ApplyRecord(at, rec)
	})
}

// RefreshReplica publishes everything applied so far to new snapshots (see
// DB.RefreshReplica).
func (f *Facade) RefreshReplica() error { return f.run(f.db.RefreshReplica) }

// Promote flips a follower's engine writable (see DB.Promote).
func (f *Facade) Promote() error { return f.run(f.db.Promote) }

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
		flushStart := time.Now()
		t, errs := f.db.CommitBatch(txs, f.cursor())
		f.publish(t)
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
	f.maybeTick()
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
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return f.db.Abort(tx, at)
	})
}

// maybeTick drives time-based maintenance opportunistically; contended
// callers skip rather than queue, so maintenance never becomes a convoy.
func (f *Facade) maybeTick() {
	if !f.tickMu.TryLock() {
		return
	}
	defer f.tickMu.Unlock()
	if t, err := f.db.Tick(f.cursor()); err == nil {
		f.publish(t)
	}
}

// Checkpoint flushes all dirty state (exclusive with maintenance ticks).
func (f *Facade) Checkpoint() error {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	return f.run(f.db.Checkpoint)
}

// Stats returns engine-wide counters.
func (f *Facade) Stats() Stats { return f.db.Stats() }

// Get returns the row of key in tab visible to tx.
func (f *Facade) Get(tab *Table, tx *txn.Tx, key int64) (tuple.Row, error) {
	var row tuple.Row
	err := f.run(func(at simclock.Time) (simclock.Time, error) {
		r, t, err := tab.Get(tx, at, key)
		row = r
		return t, err
	})
	return row, err
}

// Insert stores row in tab under its primary key.
func (f *Facade) Insert(tab *Table, tx *txn.Tx, row tuple.Row) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return tab.Insert(tx, at, row)
	})
}

// Update applies mutate to the visible row of key in tab.
func (f *Facade) Update(tab *Table, tx *txn.Tx, key int64, mutate func(tuple.Row) (tuple.Row, error)) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return tab.Update(tx, at, key, mutate)
	})
}

// Delete removes the row of key in tab.
func (f *Facade) Delete(tab *Table, tx *txn.Tx, key int64) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return tab.Delete(tx, at, key)
	})
}

// Scan visits every row of tab visible to tx.
func (f *Facade) Scan(tab *Table, tx *txn.Tx, fn func(tuple.Row) bool) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return tab.Scan(tx, at, fn)
	})
}

// RangeByKey visits visible rows of tab with lo <= primary key <= hi.
func (f *Facade) RangeByKey(tab *Table, tx *txn.Tx, lo, hi int64, fn func(tuple.Row) bool) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return tab.RangeByKey(tx, at, lo, hi, fn)
	})
}

// LookupSecondary returns visible rows of tab matching key in secondary
// index idx.
func (f *Facade) LookupSecondary(tab *Table, tx *txn.Tx, idx int, key int64) ([]tuple.Row, error) {
	var rows []tuple.Row
	err := f.run(func(at simclock.Time) (simclock.Time, error) {
		r, t, err := tab.LookupSecondary(tx, at, idx, key)
		rows = r
		return t, err
	})
	return rows, err
}

// RangeBySecondary visits visible rows of tab with lo <= indexed value <= hi
// through secondary index idx, in index order.
func (f *Facade) RangeBySecondary(tab *Table, tx *txn.Tx, idx int, lo, hi int64, fn func(indexKey int64, row tuple.Row) bool) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return tab.RangeBySecondary(tx, at, idx, lo, hi, fn)
	})
}

// SnapshotToken returns a stable AS OF snapshot token (see DB.SnapshotToken).
func (f *Facade) SnapshotToken() uint64 { return f.db.SnapshotToken() }

// BeginAt starts a read-only transaction pinned at an AS OF snapshot token.
func (f *Facade) BeginAt(token uint64) *txn.Tx { return f.db.BeginReadOnlyAt(token) }

// CreateTable creates a table through the logged DDL path.
func (f *Facade) CreateTable(name string, schema *tuple.Schema, pkCol string) (*Table, error) {
	var tab *Table
	err := f.run(func(at simclock.Time) (simclock.Time, error) {
		tb, t, err := f.db.CreateTableLogged(at, name, schema, pkCol)
		tab = tb
		return t, err
	})
	return tab, err
}

// DropTable drops a table through the logged DDL path.
func (f *Facade) DropTable(name string) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return f.db.DropTableLogged(at, name)
	})
}

// CreateIndex creates a named column index through the logged DDL path.
func (f *Facade) CreateIndex(table, index, column string) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return f.db.CreateIndexLogged(at, table, index, column)
	})
}

// DropIndex drops a named index through the logged DDL path.
func (f *Facade) DropIndex(table, index string) error {
	return f.run(func(at simclock.Time) (simclock.Time, error) {
		return f.db.DropIndexLogged(at, table, index)
	})
}
