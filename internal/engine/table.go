package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sias/internal/core"
	"sias/internal/page"
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
	// reads (RangeBySecondary) running alongside a CREATE or DROP INDEX on
	// the same table take a consistent view without the lock — the same
	// copy-on-write rule core.Relation follows for its trees.
	secs atomic.Pointer[[]secondary]
}

// secondary describes one secondary-index slot.
type secondary struct {
	name    string
	column  string // "" for programmatic keyFn indexes: test-only, not replayable
	relID   uint32
	dropped bool // DROP INDEX tombstones the slot, so positions stay stable
	keyFn   func(tuple.View) (int64, bool)
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
// Returns the index id to pass to RangeBySecondary. Not logged: an arbitrary
// Go function cannot be replayed from the WAL — durable indexes are created
// by column through CreateIndexLogged.
func (t *Table) AddSecondaryIndex(at simclock.Time, name string, keyFn func(tuple.View) (int64, bool)) (int, simclock.Time, error) {
	t.db.mu.Lock()
	relID := t.db.nextRelID
	t.db.nextRelID++
	t.db.mu.Unlock()
	return t.addSecondary(at, name, "", relID, keyFn)
}

// addSecondary attaches the index to the relation and records its metadata.
// col is the indexed column name ("" for programmatic indexes).
func (t *Table) addSecondary(at simclock.Time, name, col string, relID uint32, keyFn func(tuple.View) (int64, bool)) (int, simclock.Time, error) {
	payloadFn := func(payload []byte) (int64, bool) {
		v, err := t.schema.View(payload)
		if err != nil {
			return 0, false
		}
		return keyFn(v)
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

// keyOf reads the primary key of a stored payload through a view, for the
// relations' rebuild, replay and vacuum: 0 when it does not decode, like a
// NULL key.
func (t *Table) keyOf(payload []byte) int64 {
	v, err := t.schema.View(payload)
	if err != nil {
		return 0
	}
	return v.Int64(t.pkCol)
}

// CorruptRowError is what a read or write of a table returns when a stored
// version's payload does not decode against the table's schema: the call
// stops there instead of skipping the row. It names the table and the
// version — by VID under SIAS, by TID under SI.
type CorruptRowError struct {
	Table string
	VID   uint64   // SIAS
	TID   page.TID // SI; page.InvalidTID under SIAS
	Err   error    // the decoder's complaint
}

func (e *CorruptRowError) Error() string {
	if e.TID.Valid() {
		return fmt.Sprintf("engine: table %s: version at %v does not decode: %v", e.Table, e.TID, e.Err)
	}
	return fmt.Sprintf("engine: table %s: version of VID %d does not decode: %v", e.Table, e.VID, e.Err)
}

func (e *CorruptRowError) Unwrap() error { return e.Err }

// view checks a stored version's payload against the table's schema; vid
// names the version under SIAS, tid under SI.
func (t *Table) view(payload []byte, vid uint64, tid page.TID) (tuple.View, error) {
	v, err := t.schema.View(payload)
	if err != nil {
		return tuple.View{}, &CorruptRowError{Table: t.name, VID: vid, TID: tid, Err: err}
	}
	return v, nil
}

// rowBufs holds the scratch buffers a write encodes its row into. The
// payload lives only for the relation call it is handed to: both engines
// copy it into a page slot and the WAL tail (core.Relation.append,
// si.Relation.placeVersion) and read it for secondary keys before they
// return, and nothing they leave behind — finish hooks, index entries —
// refers to it.
var rowBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxRowBuf is the largest scratch buffer rowBufs takes back: a row near a
// page is rare, and its buffer is not worth keeping.
const maxRowBuf = 16 << 10

func putRowBuf(buf *[]byte) {
	if cap(*buf) <= maxRowBuf {
		rowBufs.Put(buf)
	}
}

// Insert stores row under its primary key.
func (t *Table) Insert(tx *txn.Tx, at simclock.Time, row tuple.Row) (simclock.Time, error) {
	if tx.ReadOnly() {
		return at, ErrReadOnly
	}
	buf := rowBufs.Get().(*[]byte)
	defer putRowBuf(buf)
	payload, err := t.schema.AppendRow((*buf)[:0], row)
	if err != nil {
		return at, err
	}
	*buf = payload
	key, _ := row[t.pkCol].(int64)
	if t.sias != nil {
		_, tm, err := t.sias.Insert(tx, at, key, payload)
		return tm, err
	}
	return t.si.Insert(tx, at, key, payload)
}

// pointVIDs sizes the VID buffer a point lookup hands the primary index: a
// key has one VID unless rows moved through it (stale key epochs).
const pointVIDs = 4

// Get returns the row of key visible to tx, as a view of the version's
// private copy.
func (t *Table) Get(tx *txn.Tx, at simclock.Time, key int64) (tuple.View, simclock.Time, error) {
	if t.sias != nil {
		// <key, VID> entries survive key changes: re-check the key of the
		// returned version (Section 4.3, Example 1).
		var vidBuf [pointVIDs]uint64
		vids, tm, err := t.sias.VIDsForKey(at, key, vidBuf[:0])
		if err != nil {
			return tuple.View{}, tm, err
		}
		for _, vid := range vids {
			payload, tm2, err := t.sias.GetByVID(tx, tm, vid)
			tm = tm2
			if errors.Is(err, core.ErrNotFound) {
				continue
			}
			if err != nil {
				return tuple.View{}, tm, err
			}
			v, err := t.view(payload, vid, page.InvalidTID)
			if err != nil {
				return tuple.View{}, tm, err
			}
			if v.Int64(t.pkCol) == key {
				return v, tm, nil
			}
		}
		return tuple.View{}, tm, ErrNotFound
	}
	payload, tid, tm, err := t.si.Get(tx, at, key)
	if errors.Is(err, si.ErrNotFound) {
		return tuple.View{}, tm, ErrNotFound
	}
	if err != nil {
		return tuple.View{}, tm, err
	}
	v, err := t.view(payload, 0, tid)
	return v, tm, err
}

// errWrongKeyEpoch signals that a visible version matched a stale index
// entry for a different key; the caller tries the next candidate.
var errWrongKeyEpoch = errors.New("engine: stale index entry")

// Update rewrites the visible row of key. mutate gets that row as a view of
// the version's private copy, appends the new row's encoding to dst — with
// a tuple.Edit, which re-encodes only the columns it sets, or with
// Schema.AppendRow — and returns the extended dst. The new row may change
// the primary key; index maintenance follows the engine's rules (SIAS leaves
// the index untouched for non-key updates). mutate must not write into
// old's bytes, which the relation still reads to re-key secondary indexes.
func (t *Table) Update(tx *txn.Tx, at simclock.Time, key int64, mutate func(old tuple.View, dst []byte) ([]byte, error)) (simclock.Time, error) {
	if tx.ReadOnly() {
		return at, ErrReadOnly
	}
	buf := rowBufs.Get().(*[]byte)
	defer putRowBuf(buf)
	var vid uint64 // the version being rewritten, for a CorruptRowError
	wrap := func(tid page.TID, old []byte) ([]byte, int64, error) {
		ov, err := t.view(old, vid, tid)
		if err != nil {
			return nil, 0, err
		}
		if ov.Int64(t.pkCol) != key {
			return nil, 0, errWrongKeyEpoch
		}
		payload, err := mutate(ov, (*buf)[:0])
		if err != nil {
			return nil, 0, err
		}
		nv, err := t.schema.View(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: table %s: update of key %d: %w", t.name, key, err)
		}
		*buf = payload
		return payload, nv.Int64(t.pkCol), nil
	}
	if t.sias != nil {
		var vidBuf [pointVIDs]uint64
		vids, tm, err := t.sias.VIDsForKey(at, key, vidBuf[:0])
		if err != nil {
			return tm, err
		}
		byVID := func(old []byte) ([]byte, int64, error) { return wrap(page.InvalidTID, old) }
		for _, vid = range vids {
			tm2, err := t.sias.UpdateByVID(tx, tm, vid, key, byVID)
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
		var vid uint64
		check := func(old []byte) error {
			v, err := t.view(old, vid, page.InvalidTID)
			if err != nil {
				return err
			}
			if v.Int64(t.pkCol) != key {
				return errWrongKeyEpoch
			}
			return nil
		}
		var vidBuf [pointVIDs]uint64
		vids, tm, err := t.sias.VIDsForKey(at, key, vidBuf[:0])
		if err != nil {
			return tm, err
		}
		for _, vid = range vids {
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

// Every read below hands fn views of the versions' private copies, and a
// version whose payload does not decode stops it with a CorruptRowError:
// the relation callback records it in bad and returns false, and the read
// returns it unless the relation failed first.
func readErr(err, bad error) error {
	if err != nil {
		return err
	}
	return bad
}

// Scan visits every visible row. Under SIAS this is the paper's Algorithm 1
// (VIDmap-first); under SI the traditional full relation scan.
func (t *Table) Scan(tx *txn.Tx, at simclock.Time, fn func(tuple.View) bool) (simclock.Time, error) {
	var bad error
	var tm simclock.Time
	var err error
	if t.sias != nil {
		tm, err = t.sias.Scan(tx, at, func(vid uint64, payload []byte) bool {
			v, verr := t.view(payload, vid, page.InvalidTID)
			if verr != nil {
				bad = verr
				return false
			}
			return fn(v)
		})
	} else {
		tm, err = t.si.Scan(tx, at, func(tid page.TID, payload []byte) bool {
			v, verr := t.view(payload, 0, tid)
			if verr != nil {
				bad = verr
				return false
			}
			return fn(v)
		})
	}
	return tm, readErr(err, bad)
}

// RangeByKey visits visible rows with lo <= primary key <= hi in key order.
func (t *Table) RangeByKey(tx *txn.Tx, at simclock.Time, lo, hi int64, fn func(tuple.View) bool) (simclock.Time, error) {
	var bad error
	var tm simclock.Time
	var err error
	if t.sias != nil {
		tm, err = t.sias.RangeByKey(tx, at, lo, hi, func(indexKey int64, vid uint64, payload []byte) bool {
			v, verr := t.view(payload, vid, page.InvalidTID)
			if verr != nil {
				bad = verr
				return false
			}
			// Stale key-epoch entries resolve to rows whose current key
			// differs; skip them (the row is also reachable via its
			// current-key entry).
			if v.Int64(t.pkCol) != indexKey {
				return true
			}
			return fn(v)
		})
	} else {
		tm, err = t.si.RangeByKey(tx, at, lo, hi, func(_ int64, tid page.TID, payload []byte) bool {
			v, verr := t.view(payload, 0, tid)
			if verr != nil {
				bad = verr
				return false
			}
			return fn(v)
		})
	}
	return tm, readErr(err, bad)
}

// ParallelScan visits every visible row using the parallelizable VIDmap
// access path under SIAS (fn may be called from multiple goroutines and must
// be safe for concurrent use). The SI baseline has no equivalent parallel
// path — its traditional relation scan runs sequentially, as the paper
// contrasts — so SI falls back to Scan.
func (t *Table) ParallelScan(tx *txn.Tx, at simclock.Time, parallelism int, fn func(tuple.View)) (simclock.Time, error) {
	if t.sias == nil {
		return t.Scan(tx, at, func(v tuple.View) bool {
			fn(v)
			return true
		})
	}
	var mu sync.Mutex
	var bad error
	tm, err := t.sias.ParallelScan(tx, at, parallelism, func(vid uint64, payload []byte) bool {
		v, verr := t.view(payload, vid, page.InvalidTID)
		if verr != nil {
			mu.Lock()
			if bad == nil {
				bad = verr
			}
			mu.Unlock()
			return false
		}
		fn(v)
		return true
	})
	return tm, readErr(err, bad)
}

// RangeBySecondary visits visible rows with lo <= indexed value <= hi in
// index order; a point lookup is the range lo == hi. Stale entries (the
// row's current indexed value moved out from under the entry after an
// update) are re-checked and skipped.
func (t *Table) RangeBySecondary(tx *txn.Tx, at simclock.Time, idx int, lo, hi int64, fn func(indexKey int64, v tuple.View) bool) (simclock.Time, error) {
	secs := t.secondaries()
	var bad error
	visit := func(indexKey int64, vid uint64, tid page.TID, payload []byte) bool {
		v, verr := t.view(payload, vid, tid)
		if verr != nil {
			bad = verr
			return false
		}
		if idx < len(secs) {
			if k, ok := secs[idx].keyFn(v); !ok || k != indexKey {
				return true
			}
		}
		return fn(indexKey, v)
	}
	var tm simclock.Time
	var err error
	if t.sias != nil {
		tm, err = t.sias.RangeBySecondary(tx, at, idx, lo, hi, func(indexKey int64, vid uint64, payload []byte) bool {
			return visit(indexKey, vid, page.InvalidTID, payload)
		})
	} else {
		tm, err = t.si.RangeBySecondary(tx, at, idx, lo, hi, func(indexKey int64, tid page.TID, payload []byte) bool {
			return visit(indexKey, 0, tid, payload)
		})
	}
	return tm, readErr(err, bad)
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
