// Package sias is the public API of the SIAS reproduction: a multi-version
// storage engine implementing Snapshot Isolation Append Storage (SIAS) with
// singly-linked version chains over a VIDmap, next to a classical
// Snapshot-Isolation baseline with in-place invalidation, both running over
// simulated Flash SSDs, HDDs or plain memory.
//
// The engines operate in *virtual time*: device latencies advance a
// simulated clock instead of wall time, which makes experiments
// deterministic and fast. This package hides the clock behind a per-DB
// monotonic cursor so applications read and write as with any embedded
// database; Elapsed reports how much virtual time the work consumed.
//
// Quick start:
//
//	db, _ := sias.Open(sias.Options{})          // SIAS engine on simulated SSDs
//	tab, _ := db.CreateTable("users", sias.NewSchema(
//	    sias.Column{Name: "id", Type: sias.TypeInt64},
//	    sias.Column{Name: "name", Type: sias.TypeString},
//	), "id")
//	tx := db.Begin()
//	tab.Insert(tx, sias.Row{int64(1), "alice"})
//	db.Commit(tx)
package sias

import (
	"sync"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/flash"
	"sias/internal/hdd"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/trace"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// Engine selects the storage scheme.
type Engine int

// Engine kinds.
const (
	// EngineSIAS is the paper's append-storage engine with version chains.
	EngineSIAS Engine = iota
	// EngineSI is the classical in-place-invalidation baseline.
	EngineSI
)

// Storage selects the simulated backing device.
type Storage int

// Storage kinds.
const (
	// StorageSSD simulates a two-SSD RAID-0 of SLC flash devices.
	StorageSSD Storage = iota
	// StorageHDD simulates a 7200 rpm SATA disk.
	StorageHDD
	// StorageMem stores pages in memory with zero latency.
	StorageMem
)

// FlushPolicy selects the paper's append-flush threshold.
type FlushPolicy int

// Flush policies.
const (
	// FlushCheckpoint (the paper's t2) persists append pages at checkpoints,
	// maximizing their fill degree. The default.
	FlushCheckpoint FlushPolicy = iota
	// FlushBackgroundWriter (the paper's t1) persists dirty pages on every
	// background-writer tick.
	FlushBackgroundWriter
)

// Row, Schema and Column are re-exported from the tuple layer.
type (
	// Row is an ordered list of column values (int64, float64, string,
	// []byte, bool or nil).
	Row = tuple.Row
	// Schema describes a table's columns.
	Schema = tuple.Schema
	// Column is one attribute definition.
	Column = tuple.Column
	// ColType enumerates column types.
	ColType = tuple.ColType
)

// Column types.
const (
	TypeInt64   = tuple.TypeInt64
	TypeFloat64 = tuple.TypeFloat64
	TypeString  = tuple.TypeString
	TypeBytes   = tuple.TypeBytes
	TypeBool    = tuple.TypeBool
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return tuple.NewSchema(cols...) }

// ErrNotFound is returned when a key has no visible row.
var ErrNotFound = engine.ErrNotFound

// ErrSerialization is the first-updater-wins conflict error; retry the
// transaction.
var ErrSerialization = txn.ErrSerialization

// Tx is an open transaction.
type Tx = txn.Tx

// Options configures Open. The zero value opens a SIAS engine with
// checkpoint flushing on simulated SSDs.
type Options struct {
	Engine  Engine
	Storage Storage
	Policy  FlushPolicy
	// PoolFrames sizes the buffer pool in 8 KB pages (default 4096).
	PoolFrames int
	// DataPages sizes the simulated data device (default 1<<18).
	DataPages int64
	// Trace records a block trace of the data device when true.
	Trace bool
}

// DB is an open database.
type DB struct {
	inner  *engine.DB
	tracer *trace.Recorder

	mu  sync.Mutex
	now simclock.Time
}

// Open creates a database with freshly-created simulated devices.
func Open(opts Options) (*DB, error) {
	if opts.PoolFrames == 0 {
		opts.PoolFrames = 4096
	}
	if opts.DataPages == 0 {
		opts.DataPages = 1 << 18
	}
	var tracer *trace.Recorder
	if opts.Trace {
		tracer = trace.New()
	}
	var data device.BlockDevice
	var walDev device.BlockDevice
	switch opts.Storage {
	case StorageSSD:
		fc := flash.DefaultConfig()
		fc.Blocks = int(opts.DataPages/2/int64(fc.PagesPerBlock)) + fc.OverProvision + 2
		data = device.NewRAID0(flash.New(fc, tracer), flash.New(fc, tracer))
		wc := flash.DefaultConfig()
		wc.Blocks = 4096
		walDev = flash.New(wc, nil)
	case StorageHDD:
		hc := hdd.DefaultConfig()
		hc.NumPages = opts.DataPages
		data = hdd.New(hc, tracer)
		walDev = hdd.New(hdd.DefaultConfig(), nil)
	default:
		data = device.NewMem(page.Size, opts.DataPages)
		walDev = device.NewMem(page.Size, 1<<18)
	}
	eopts := engine.DefaultOptions(data, walDev)
	eopts.PoolFrames = opts.PoolFrames
	if opts.Engine == EngineSI {
		eopts.Kind = engine.KindSI
	} else {
		eopts.Kind = engine.KindSIAS
	}
	if opts.Policy == FlushBackgroundWriter {
		eopts.Policy = engine.PolicyT1
	} else {
		eopts.Policy = engine.PolicyT2
	}
	inner, err := engine.Open(eopts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, tracer: tracer}, nil
}

// advance runs fn at the DB's virtual clock cursor and moves the cursor to
// where fn ended. fn runs without db.mu: an operation that waits for a row
// lock must not keep the lock's holder from committing. Concurrent
// operations start from the same cursor and overlap in virtual time; the
// cursor and the maintenance it drives stay serialized.
func (db *DB) advance(fn func(at simclock.Time) (simclock.Time, error)) error {
	db.mu.Lock()
	at := db.now
	db.mu.Unlock()
	t, err := fn(at)
	db.mu.Lock()
	defer db.mu.Unlock()
	if t > db.now {
		db.now = t
	}
	// Drive background maintenance from the same cursor.
	if t2, terr := db.inner.Tick(db.now); terr == nil && t2 > db.now {
		db.now = t2
	}
	return err
}

// Elapsed reports the virtual time consumed so far.
func (db *DB) Elapsed() simclock.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	return simclock.Duration(db.now)
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return db.inner.Begin() }

// Commit makes tx durable.
func (db *DB) Commit(tx *Tx) error {
	return db.advance(func(at simclock.Time) (simclock.Time, error) {
		return db.inner.Commit(tx, at)
	})
}

// Abort rolls tx back.
func (db *DB) Abort(tx *Tx) error {
	return db.advance(func(at simclock.Time) (simclock.Time, error) {
		return db.inner.Abort(tx, at)
	})
}

// Checkpoint flushes all dirty state to the simulated devices.
func (db *DB) Checkpoint() error {
	return db.advance(db.inner.Checkpoint)
}

// RunMaintenance triggers garbage collection (SIAS) or vacuum (SI).
func (db *DB) RunMaintenance() error {
	return db.advance(db.inner.RunMaintenance)
}

// Stats returns engine-wide counters (device I/O, pool, WAL).
func (db *DB) Stats() engine.Stats { return db.inner.Stats() }

// Trace returns the block-trace recorder (nil unless Options.Trace).
func (db *DB) Trace() *trace.Recorder { return db.tracer }

// Internal exposes the underlying engine DB for advanced use (experiment
// harnesses drive the clock explicitly).
func (db *DB) Internal() *engine.DB { return db.inner }

// Table is a typed table handle.
type Table struct {
	db    *DB
	inner *engine.Table
}

// CreateTable registers a table with an int64 primary-key column.
func (db *DB) CreateTable(name string, schema *Schema, pkCol string) (*Table, error) {
	var tab *engine.Table
	err := db.advance(func(at simclock.Time) (simclock.Time, error) {
		t, a, err := db.inner.CreateTable(at, name, schema, pkCol)
		tab = t
		return a, err
	})
	if err != nil {
		return nil, err
	}
	return &Table{db: db, inner: tab}, nil
}

// AddSecondaryIndex attaches a secondary index computed from rows.
// Returns the index id for RangeBySecondary.
func (t *Table) AddSecondaryIndex(name string, keyFn func(Row) (int64, bool)) (int, error) {
	var id int
	err := t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		i, a, err := t.inner.AddSecondaryIndex(at, name, func(v tuple.View) (int64, bool) { return keyFn(v.Row()) })
		id = i
		return a, err
	})
	return id, err
}

// Name returns the table name.
func (t *Table) Name() string { return t.inner.Name() }

// Insert stores row under its primary key.
func (t *Table) Insert(tx *Tx, row Row) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.Insert(tx, at, row)
	})
}

// Get returns the row visible to tx under key.
func (t *Table) Get(tx *Tx, key int64) (Row, error) {
	var row Row
	err := t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		v, a, err := t.inner.Get(tx, at, key)
		if err == nil {
			row = v.Row()
		}
		return a, err
	})
	return row, err
}

// Update applies mutate to the visible row of key.
func (t *Table) Update(tx *Tx, key int64, mutate func(Row) (Row, error)) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.Update(tx, at, key, func(old tuple.View, dst []byte) ([]byte, error) {
			row, err := mutate(old.Row())
			if err != nil {
				return nil, err
			}
			return old.Schema().AppendRow(dst, row)
		})
	})
}

// Delete removes the row of key.
func (t *Table) Delete(tx *Tx, key int64) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.Delete(tx, at, key)
	})
}

// Scan visits every row visible to tx.
func (t *Table) Scan(tx *Tx, fn func(Row) bool) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.Scan(tx, at, func(v tuple.View) bool { return fn(v.Row()) })
	})
}

// RangeByKey visits visible rows with lo <= primary key <= hi in key order.
func (t *Table) RangeByKey(tx *Tx, lo, hi int64, fn func(Row) bool) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.RangeByKey(tx, at, lo, hi, func(v tuple.View) bool { return fn(v.Row()) })
	})
}

// ParallelScan visits every visible row; under the SIAS engine the VIDmap
// partitions are resolved concurrently and fn must be safe for concurrent
// use.
func (t *Table) ParallelScan(tx *Tx, parallelism int, fn func(Row)) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.ParallelScan(tx, at, parallelism, func(v tuple.View) { fn(v.Row()) })
	})
}

// RangeBySecondary visits the visible rows with lo <= key <= hi in index idx,
// in index-key order; a point lookup is the range lo == hi.
func (t *Table) RangeBySecondary(tx *Tx, idx int, lo, hi int64, fn func(indexKey int64, row Row) bool) error {
	return t.db.advance(func(at simclock.Time) (simclock.Time, error) {
		return t.inner.RangeBySecondary(tx, at, idx, lo, hi, func(k int64, v tuple.View) bool { return fn(k, v.Row()) })
	})
}

// Internal exposes the engine-level table (stats, chain inspection).
func (t *Table) Internal() *engine.Table { return t.inner }
