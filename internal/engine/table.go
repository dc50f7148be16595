package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sias/internal/core"
	"sias/internal/si"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// ErrNotFound is returned when a key has no visible row.
var ErrNotFound = errors.New("engine: no visible row for key")

// Table is a schema-typed view over one relation of either engine kind. The
// primary key is a single int64 column (composite keys are bit-packed by the
// workload layer).
type Table struct {
	db     *DB
	name   string
	schema *tuple.Schema
	pkCol  int

	sias *core.Relation
	si   *si.Relation

	// secs is the table's secondary-index metadata, positionally aligned
	// with the relation's secondary slice. The slice is immutable once
	// published: DDL builds a new one and swaps it in under db.mu, so index
	// reads (LookupSecondary, RangeBySecondary) running alongside a CREATE or
	// DROP INDEX on the same table take a consistent view without the lock —
	// the same copy-on-write rule core.Relation follows for its trees.
	secs atomic.Pointer[[]secondary]
}

// secondary describes one secondary-index slot.
type secondary struct {
	name    string
	column  string // "" for programmatic keyFn indexes: test-only, not replayable
	relID   uint32
	dropped bool // DROP INDEX tombstones the slot, so positions stay stable
	keyFn   func(tuple.Row) (int64, bool)
}

// secondaries returns the current index metadata; the slice is read-only.
func (t *Table) secondaries() []secondary {
	if p := t.secs.Load(); p != nil {
		return *p
	}
	return nil
}

// liveSecondary returns the position of the named live index, or -1.
func liveSecondary(secs []secondary, name string) int {
	for i := range secs {
		if secs[i].name == name && !secs[i].dropped {
			return i
		}
	}
	return -1
}

// CreateTable registers a new table with the configured engine kind without
// logging a DDL record: it is the bootstrap path for schema the process
// recreates deterministically on every start (the server's default table,
// tests). Wire-level DDL goes through CreateTableLogged, which persists the
// change in the WAL.
func (db *DB) CreateTable(at simclock.Time, name string, schema *tuple.Schema, pkCol string) (*Table, simclock.Time, error) {
	db.mu.Lock()
	if _, dup := db.tables[name]; dup {
		db.mu.Unlock()
		return nil, at, fmt.Errorf("%w: table %s", ErrExists, name)
	}
	heapID := db.nextRelID
	pkID := db.nextRelID + 1
	db.nextRelID += 2
	db.mu.Unlock()
	return db.createTableWithIDs(at, name, schema, pkCol, heapID, pkID)
}

// createTableWithIDs builds a table over pre-assigned relation ids. Both the
// bootstrap path (ids fresh off the counter) and DDL replay (ids recorded in
// the log) land here.
func (db *DB) createTableWithIDs(at simclock.Time, name string, schema *tuple.Schema, pkCol string, heapID, pkID uint32) (*Table, simclock.Time, error) {
	pi := schema.Col(pkCol)
	if pi < 0 {
		return nil, at, fmt.Errorf("engine: table %s: no column %q", name, pkCol)
	}
	if schema.Cols[pi].Type != tuple.TypeInt64 {
		return nil, at, fmt.Errorf("engine: table %s: primary key %q must be int64", name, pkCol)
	}
	tab := &Table{db: db, name: name, schema: schema, pkCol: pi}
	var t simclock.Time
	var err error
	switch db.opts.Kind {
	case KindSIAS:
		tab.sias, t, err = core.New(at, core.Config{
			ID:                  heapID,
			Name:                name,
			Pool:                db.pool,
			Alloc:               db.alloc,
			WAL:                 db.walw,
			Txns:                db.txm,
			PKRelID:             pkID,
			VMapResidentBuckets: db.opts.VMapResidentBuckets,
			VMapMissPenalty:     100 * simclock.Microsecond,
			Readahead:           db.opts.ScanReadahead,
		})
	case KindSI:
		tab.si, t, err = si.New(at, si.Config{
			ID:      heapID,
			Name:    name,
			Pool:    db.pool,
			Alloc:   db.alloc,
			WAL:     db.walw,
			Txns:    db.txm,
			PKRelID: pkID,
			Retain:  txn.ID(db.opts.GCRetention),
		})
	default:
		err = fmt.Errorf("engine: unknown kind %v", db.opts.Kind)
	}
	if err != nil {
		return nil, t, err
	}
	db.mu.Lock()
	if _, dup := db.tables[name]; dup {
		db.mu.Unlock()
		return nil, t, fmt.Errorf("%w: table %s", ErrExists, name)
	}
	db.tables[name] = tab
	db.order = append(db.order, tab)
	db.rels[heapID] = tab
	db.mu.Unlock()
	return tab, t, nil
}

// heapID returns the table's heap relation id.
func (t *Table) heapID() uint32 {
	if t.sias != nil {
		return t.sias.ID()
	}
	return t.si.ID()
}

// AddSecondaryIndex attaches a secondary index computed by keyFn over rows.
// Returns the index id to pass to LookupSecondary. Not logged: an arbitrary
// Go function cannot be replayed from the WAL — durable indexes are created
// by column through CreateIndexLogged.
func (t *Table) AddSecondaryIndex(at simclock.Time, name string, keyFn func(tuple.Row) (int64, bool)) (int, simclock.Time, error) {
	t.db.mu.Lock()
	relID := t.db.nextRelID
	t.db.nextRelID++
	t.db.mu.Unlock()
	return t.addSecondary(at, name, "", relID, keyFn)
}

// addSecondary attaches the index to the relation and records its metadata.
// col is the indexed column name ("" for programmatic indexes).
func (t *Table) addSecondary(at simclock.Time, name, col string, relID uint32, keyFn func(tuple.Row) (int64, bool)) (int, simclock.Time, error) {
	payloadFn := func(payload []byte) (int64, bool) {
		row, err := t.schema.DecodeRow(payload)
		if err != nil {
			return 0, false
		}
		return keyFn(row)
	}
	var tm simclock.Time
	var err error
	if t.sias != nil {
		tm, err = t.sias.AddSecondary(at, relID, payloadFn)
	} else {
		tm, err = t.si.AddSecondary(at, relID, payloadFn)
	}
	if err != nil {
		return 0, tm, err
	}
	t.db.mu.Lock()
	old := t.secondaries()
	secs := append(old[:len(old):len(old)], secondary{name: name, column: col, relID: relID, keyFn: keyFn})
	t.secs.Store(&secs)
	t.db.mu.Unlock()
	return len(old), tm, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// PKCol returns the primary key column's name.
func (t *Table) PKCol() string { return t.schema.Cols[t.pkCol].Name }

// SIAS exposes the underlying SIAS relation (nil for SI tables).
func (t *Table) SIAS() *core.Relation { return t.sias }

// SI exposes the underlying SI relation (nil for SIAS tables).
func (t *Table) SI() *si.Relation { return t.si }

// Key extracts the primary key of a row.
func (t *Table) Key(row tuple.Row) int64 {
	v, _ := row[t.pkCol].(int64)
	return v
}

func (t *Table) keyOfPayload(payload []byte) int64 {
	row, err := t.schema.DecodeRow(payload)
	if err != nil {
		return 0
	}
	return t.Key(row)
}

// Insert stores row under its primary key.
func (t *Table) Insert(tx *txn.Tx, at simclock.Time, row tuple.Row) (simclock.Time, error) {
	if tx.ReadOnly() {
		return at, ErrReadOnly
	}
	payload, err := t.schema.EncodeRow(row)
	if err != nil {
		return at, err
	}
	key := t.Key(row)
	if t.sias != nil {
		_, tm, err := t.sias.Insert(tx, at, key, payload)
		return tm, err
	}
	return t.si.Insert(tx, at, key, payload)
}

// Get returns the row of key visible to tx.
func (t *Table) Get(tx *txn.Tx, at simclock.Time, key int64) (tuple.Row, simclock.Time, error) {
	if t.sias != nil {
		// <key, VID> entries survive key changes: re-check the key of the
		// returned version (Section 4.3, Example 1).
		vids, tm, err := t.sias.VIDsForKey(at, key)
		if err != nil {
			return nil, tm, err
		}
		for _, vid := range vids {
			payload, tm2, err := t.sias.GetByVID(tx, tm, vid)
			tm = tm2
			if errors.Is(err, core.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, tm, err
			}
			row, derr := t.schema.DecodeRow(payload)
			if derr != nil {
				return nil, tm, derr
			}
			if t.Key(row) == key {
				return row, tm, nil
			}
		}
		return nil, tm, ErrNotFound
	}
	payload, tm, err := t.si.Get(tx, at, key)
	if errors.Is(err, si.ErrNotFound) {
		return nil, tm, ErrNotFound
	}
	if err != nil {
		return nil, tm, err
	}
	row, derr := t.schema.DecodeRow(payload)
	return row, tm, derr
}

// errWrongKeyEpoch signals that a visible version matched a stale index
// entry for a different key; the caller tries the next candidate.
var errWrongKeyEpoch = errors.New("engine: stale index entry")

// Update applies mutate to the visible row of key. The mutated row may
// change the primary key; index maintenance follows the engine's rules
// (SIAS leaves the index untouched for non-key updates). The row mutate gets
// is decoded in place from the version's private copy: mutate may return its
// values in the new row but must not write into its bytes columns, which the
// relation still reads to re-key secondary indexes.
func (t *Table) Update(tx *txn.Tx, at simclock.Time, key int64, mutate func(tuple.Row) (tuple.Row, error)) (simclock.Time, error) {
	if tx.ReadOnly() {
		return at, ErrReadOnly
	}
	wrap := func(old []byte) ([]byte, int64, error) {
		row, err := t.schema.DecodeRow(old)
		if err != nil {
			return nil, 0, err
		}
		if t.Key(row) != key {
			return nil, 0, errWrongKeyEpoch
		}
		newRow, err := mutate(row)
		if err != nil {
			return nil, 0, err
		}
		payload, err := t.schema.EncodeRow(newRow)
		if err != nil {
			return nil, 0, err
		}
		return payload, t.Key(newRow), nil
	}
	if t.sias != nil {
		vids, tm, err := t.sias.VIDsForKey(at, key)
		if err != nil {
			return tm, err
		}
		for _, vid := range vids {
			tm2, err := t.sias.UpdateByVID(tx, tm, vid, key, wrap)
			tm = tm2
			if errors.Is(err, core.ErrNotFound) || errors.Is(err, errWrongKeyEpoch) {
				continue
			}
			return tm, err
		}
		return tm, ErrNotFound
	}
	tm, err := t.si.Update(tx, at, key, wrap)
	if errors.Is(err, si.ErrNotFound) {
		return tm, ErrNotFound
	}
	return tm, err
}

// Delete removes the row of key (tombstone under SIAS, in-place xmax under
// SI).
func (t *Table) Delete(tx *txn.Tx, at simclock.Time, key int64) (simclock.Time, error) {
	if tx.ReadOnly() {
		return at, ErrReadOnly
	}
	if t.sias != nil {
		// As in Update: an entry may name a row whose key has since moved.
		check := func(old []byte) error {
			row, err := t.schema.DecodeRow(old)
			if err != nil {
				return err
			}
			if t.Key(row) != key {
				return errWrongKeyEpoch
			}
			return nil
		}
		vids, tm, err := t.sias.VIDsForKey(at, key)
		if err != nil {
			return tm, err
		}
		for _, vid := range vids {
			tm2, err := t.sias.DeleteByVID(tx, tm, vid, check)
			tm = tm2
			if errors.Is(err, core.ErrNotFound) || errors.Is(err, errWrongKeyEpoch) {
				continue
			}
			return tm, err
		}
		return tm, ErrNotFound
	}
	tm, err := t.si.Delete(tx, at, key)
	if errors.Is(err, si.ErrNotFound) {
		return tm, ErrNotFound
	}
	return tm, err
}

// Scan visits every visible row. Under SIAS this is the paper's Algorithm 1
// (VIDmap-first); under SI the traditional full relation scan.
func (t *Table) Scan(tx *txn.Tx, at simclock.Time, fn func(tuple.Row) bool) (simclock.Time, error) {
	if t.sias != nil {
		return t.sias.Scan(tx, at, func(_ uint64, payload []byte) bool {
			row, err := t.schema.DecodeRow(payload)
			if err != nil {
				return true
			}
			return fn(row)
		})
	}
	return t.si.Scan(tx, at, func(payload []byte) bool {
		row, err := t.schema.DecodeRow(payload)
		if err != nil {
			return true
		}
		return fn(row)
	})
}

// RangeByKey visits visible rows with lo <= primary key <= hi in key order.
func (t *Table) RangeByKey(tx *txn.Tx, at simclock.Time, lo, hi int64, fn func(tuple.Row) bool) (simclock.Time, error) {
	if t.sias != nil {
		return t.sias.RangeByKey(tx, at, lo, hi, func(indexKey int64, _ uint64, payload []byte) bool {
			row, err := t.schema.DecodeRow(payload)
			if err != nil {
				return true
			}
			// Stale key-epoch entries resolve to rows whose current key
			// differs; skip them (the row is also reachable via its
			// current-key entry).
			if t.Key(row) != indexKey {
				return true
			}
			return fn(row)
		})
	}
	return t.si.RangeByKey(tx, at, lo, hi, func(_ int64, payload []byte) bool {
		row, err := t.schema.DecodeRow(payload)
		if err != nil {
			return true
		}
		return fn(row)
	})
}

// ParallelScan visits every visible row using the parallelizable VIDmap
// access path under SIAS (fn may be called from multiple goroutines and must
// be safe for concurrent use). The SI baseline has no equivalent parallel
// path — its traditional relation scan runs sequentially, as the paper
// contrasts — so SI falls back to Scan.
func (t *Table) ParallelScan(tx *txn.Tx, at simclock.Time, parallelism int, fn func(tuple.Row)) (simclock.Time, error) {
	if t.sias != nil {
		return t.sias.ParallelScan(tx, at, parallelism, func(_ uint64, payload []byte) {
			row, err := t.schema.DecodeRow(payload)
			if err != nil {
				return
			}
			fn(row)
		})
	}
	return t.si.Scan(tx, at, func(payload []byte) bool {
		row, err := t.schema.DecodeRow(payload)
		if err != nil {
			return true
		}
		fn(row)
		return true
	})
}

// LookupSecondary returns visible rows matching key in the secondary index.
func (t *Table) LookupSecondary(tx *txn.Tx, at simclock.Time, idx int, key int64) ([]tuple.Row, simclock.Time, error) {
	var payloads [][]byte
	var tm simclock.Time
	var err error
	if t.sias != nil {
		payloads, tm, err = t.sias.SearchSecondary(tx, at, idx, key)
	} else {
		payloads, tm, err = t.si.SearchSecondary(tx, at, idx, key)
	}
	if err != nil {
		return nil, tm, err
	}
	secs := t.secondaries()
	rows := make([]tuple.Row, 0, len(payloads))
	for _, p := range payloads {
		row, derr := t.schema.DecodeRow(p)
		if derr != nil {
			return nil, tm, derr
		}
		// Secondary entries can also be stale after updates; re-check.
		if idx < len(secs) {
			if k, ok := secs[idx].keyFn(row); !ok || k != key {
				continue
			}
		}
		rows = append(rows, row)
	}
	return rows, tm, nil
}

// RangeBySecondary visits visible rows with lo <= indexed value <= hi in
// index order. Stale entries (the row's current indexed value moved out from
// under the entry after an update) are re-checked and skipped, mirroring
// LookupSecondary.
func (t *Table) RangeBySecondary(tx *txn.Tx, at simclock.Time, idx int, lo, hi int64, fn func(indexKey int64, row tuple.Row) bool) (simclock.Time, error) {
	secs := t.secondaries()
	visit := func(indexKey int64, payload []byte) bool {
		row, err := t.schema.DecodeRow(payload)
		if err != nil {
			return true
		}
		if idx < len(secs) {
			if k, ok := secs[idx].keyFn(row); !ok || k != indexKey {
				return true
			}
		}
		return fn(indexKey, row)
	}
	if t.sias != nil {
		return t.sias.RangeBySecondary(tx, at, idx, lo, hi, func(indexKey int64, _ uint64, payload []byte) bool {
			return visit(indexKey, payload)
		})
	}
	return t.si.RangeBySecondary(tx, at, idx, lo, hi, visit)
}

// SecondaryPageWrites reports the cumulative page writes of one secondary
// index tree — the measurable half of the paper's Section 6 claim that
// non-key updates write zero index pages under SIAS.
func (t *Table) SecondaryPageWrites(idx int) int64 {
	if t.sias != nil {
		return t.sias.SecondaryPageWrites(idx)
	}
	return t.si.SecondaryPageWrites(idx)
}
