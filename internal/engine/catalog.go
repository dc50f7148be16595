package engine

import (
	"errors"
	"fmt"

	"sias/internal/catalog"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Catalog errors. ErrExists also wraps duplicate-name failures from the
// unlogged bootstrap path so callers can test with errors.Is either way.
var (
	// ErrExists is returned when a CREATE names a table or index that is
	// already present.
	ErrExists = errors.New("engine: already exists")
	// ErrNoTable is returned when DDL or a typed operation names an unknown
	// table.
	ErrNoTable = errors.New("engine: no such table")
	// ErrNoIndex is returned when DDL or an index scan names an unknown
	// index.
	ErrNoIndex = errors.New("engine: no such index")
)

// checkDDL refuses logged DDL on the SI baseline, which never replays its
// log, and on a follower that has not been promoted.
func (db *DB) checkDDL() error {
	if db.opts.Kind == KindSI {
		return ErrSIBaseline
	}
	if db.replica.Load() {
		return ErrReadOnly
	}
	return nil
}

// logDDL appends a catalog change to the WAL and forces it durable
// immediately. DDL is rare, so the extra flush is cheap; without it a crash
// right after CREATE TABLE (before any commit forced the log) would lose the
// schema while follower streams may already have observed it.
func (db *DB) logDDL(at simclock.Time, d *catalog.DDL) (simclock.Time, error) {
	lsn := db.walw.Append(&wal.Record{Type: wal.RecDDL, Data: catalog.Encode(d)})
	return db.walw.Flush(at, lsn)
}

// CreateTableLogged creates a table and records the DDL in the WAL, so crash
// recovery and replication followers re-create it without out-of-band help.
// Names (table and columns) are restricted to catalog identifiers.
func (db *DB) CreateTableLogged(at simclock.Time, name string, schema *tuple.Schema, pkCol string) (*Table, simclock.Time, error) {
	if err := db.checkDDL(); err != nil {
		return nil, at, err
	}
	if err := catalog.ValidateName(name); err != nil {
		return nil, at, fmt.Errorf("table %q: %w", name, err)
	}
	if len(schema.Cols) == 0 || len(schema.Cols) > catalog.MaxCols {
		return nil, at, fmt.Errorf("%w: table %s has %d columns (must be 1..%d)", catalog.ErrBadName, name, len(schema.Cols), catalog.MaxCols)
	}
	for _, c := range schema.Cols {
		if err := catalog.ValidateName(c.Name); err != nil {
			return nil, at, fmt.Errorf("column %q: %w", c.Name, err)
		}
		if c.Type > tuple.TypeBool {
			return nil, at, fmt.Errorf("column %q: unknown type %d", c.Name, c.Type)
		}
	}
	db.mu.Lock()
	if _, dup := db.tables[name]; dup {
		db.mu.Unlock()
		return nil, at, fmt.Errorf("%w: table %s", ErrExists, name)
	}
	heapID := db.nextRelID
	pkID := db.nextRelID + 1
	db.nextRelID += 2
	db.mu.Unlock()
	// Relation construction allocates index extents, logging RecAllocExtent
	// records before the RecDDL below — replay restores extents first and the
	// re-created tree lands on the same pages.
	tab, t, err := db.createTableWithIDs(at, name, schema, pkCol, heapID, pkID)
	if err != nil {
		return nil, t, err
	}
	t, err = db.logDDL(t, &catalog.DDL{
		Kind:   catalog.KindCreateTable,
		Table:  name,
		PKCol:  pkCol,
		Cols:   schema.Cols,
		HeapID: heapID,
		PKID:   pkID,
	})
	return tab, t, err
}

// DropTableLogged removes a table from the catalog and records the DDL. Heap
// and index pages of the dropped relation are not reclaimed (space GC for
// dropped relations is out of scope); their redo records replay harmlessly
// into pages no live table reads.
func (db *DB) DropTableLogged(at simclock.Time, name string) (simclock.Time, error) {
	if err := db.checkDDL(); err != nil {
		return at, err
	}
	if !db.removeTable(name) {
		return at, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return db.logDDL(at, &catalog.DDL{Kind: catalog.KindDropTable, Table: name})
}

// removeTable takes the named table out of the catalog and reports whether it
// was there.
func (db *DB) removeTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	tab, ok := db.tables[name]
	if !ok {
		return false
	}
	delete(db.tables, name)
	delete(db.rels, tab.heapID())
	for i, o := range db.order {
		if o == tab {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	return true
}

// CreateIndexLogged creates a named secondary index over one int64 column of
// a table, fills it from the rows the table already holds, and records the
// DDL. Column indexes are the only durable kind: a column name replays from
// the log, an arbitrary Go key function does not.
func (db *DB) CreateIndexLogged(at simclock.Time, table, index, column string) (simclock.Time, error) {
	if err := db.checkDDL(); err != nil {
		return at, err
	}
	if err := catalog.ValidateName(index); err != nil {
		return at, fmt.Errorf("index %q: %w", index, err)
	}
	tab := db.Table(table)
	if tab == nil {
		return at, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	db.mu.Lock()
	relID := db.nextRelID
	db.nextRelID++
	db.mu.Unlock()
	idx, t, err := tab.createColumnIndex(at, index, column, relID)
	if err != nil {
		return t, err
	}
	// Writers index their own versions from the moment the tree is attached;
	// the backfill covers everything appended before. A follower repeats both
	// steps when the record below reaches it.
	if t, err = tab.sias.BackfillSecondary(t, idx); err != nil {
		return t, err
	}
	return db.logDDL(t, &catalog.DDL{
		Kind:    catalog.KindCreateIndex,
		Table:   table,
		Index:   index,
		Column:  column,
		IndexID: relID,
	})
}

// DropIndexLogged removes a named secondary index and records the DDL. The
// slot is tombstoned, not compacted, so positional index ids held by
// concurrent readers stay stable; the tree's pages are not reclaimed.
func (db *DB) DropIndexLogged(at simclock.Time, table, index string) (simclock.Time, error) {
	if err := db.checkDDL(); err != nil {
		return at, err
	}
	tab := db.Table(table)
	if tab == nil {
		return at, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	if err := tab.dropSecondaryByName(index); err != nil {
		return at, err
	}
	return db.logDDL(at, &catalog.DDL{Kind: catalog.KindDropIndex, Table: table, Index: index})
}

// createColumnIndex builds the key function for an int64 column and attaches
// the index under a pre-assigned relation id (fresh on the DDL path, recorded
// in the log on replay).
func (t *Table) createColumnIndex(at simclock.Time, index, column string, relID uint32) (int, simclock.Time, error) {
	ci := t.schema.Col(column)
	if ci < 0 {
		return 0, at, fmt.Errorf("engine: table %s: no column %q", t.name, column)
	}
	if t.schema.Cols[ci].Type != tuple.TypeInt64 {
		return 0, at, fmt.Errorf("engine: table %s: index column %q must be int64", t.name, column)
	}
	if liveSecondary(t.secondaries(), index) >= 0 {
		return 0, at, fmt.Errorf("%w: index %s on %s", ErrExists, index, t.name)
	}
	keyFn := func(v tuple.View) (int64, bool) {
		if v.Null(ci) {
			return 0, false
		}
		return v.Int64(ci), true
	}
	return t.addSecondary(at, index, column, relID, keyFn)
}

// dropSecondaryByName tombstones the named index slot in both the engine
// metadata and the relation's secondary slice.
func (t *Table) dropSecondaryByName(index string) error {
	t.db.mu.Lock()
	secs := append([]secondary(nil), t.secondaries()...)
	idx := liveSecondary(secs, index)
	if idx < 0 {
		t.db.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrNoIndex, index, t.name)
	}
	secs[idx].dropped = true
	t.secs.Store(&secs)
	t.db.mu.Unlock()
	return t.sias.DropSecondary(idx)
}

// SecondaryIndex returns the positional id of the named live index, or
// ErrNoIndex.
func (t *Table) SecondaryIndex(name string) (int, error) {
	if i := liveSecondary(t.secondaries(), name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("%w: %s on %s", ErrNoIndex, name, t.name)
}

// IndexInfo describes one live secondary index.
type IndexInfo struct {
	Name   string
	Column string // "" for programmatic (keyFn) indexes
	Pos    int    // positional id for RangeBySecondary
}

// Secondaries lists the table's live secondary indexes.
func (t *Table) Secondaries() []IndexInfo {
	var out []IndexInfo
	for i, sec := range t.secondaries() {
		if !sec.dropped {
			out = append(out, IndexInfo{Name: sec.name, Column: sec.column, Pos: i})
		}
	}
	return out
}

// applyDDL replays one catalog record (redo's RecDDL case, so both crash
// recovery and the replication follower drive it); it is idempotent — a table or
// index that already exists (pre-created bootstrap schema, or re-replay after
// a follower restart) is skipped, but the relation-id counter always advances
// past the recorded ids so later allocations never collide.
func (db *DB) applyDDL(at simclock.Time, rec *wal.Record) (simclock.Time, error) {
	d, err := catalog.Decode(rec.Data)
	if err != nil {
		return at, fmt.Errorf("engine: DDL replay: %w", err)
	}
	switch d.Kind {
	case catalog.KindCreateTable:
		db.mu.Lock()
		if d.HeapID >= db.nextRelID {
			db.nextRelID = d.HeapID + 1
		}
		if d.PKID >= db.nextRelID {
			db.nextRelID = d.PKID + 1
		}
		_, exists := db.tables[d.Table]
		db.mu.Unlock()
		if exists {
			return at, nil
		}
		_, t, cerr := db.createTableWithIDs(at, d.Table, tuple.NewSchema(d.Cols...), d.PKCol, d.HeapID, d.PKID)
		if cerr != nil {
			return t, fmt.Errorf("engine: DDL replay: create table %s: %w", d.Table, cerr)
		}
		return t, nil
	case catalog.KindDropTable:
		db.removeTable(d.Table)
		return at, nil
	case catalog.KindCreateIndex:
		db.mu.Lock()
		if d.IndexID >= db.nextRelID {
			db.nextRelID = d.IndexID + 1
		}
		db.mu.Unlock()
		tab := db.Table(d.Table)
		if tab == nil {
			return at, fmt.Errorf("engine: DDL replay: create index %s on missing table %s", d.Index, d.Table)
		}
		if _, err := tab.SecondaryIndex(d.Index); err == nil {
			return at, nil
		}
		_, t, cerr := tab.createColumnIndex(at, d.Index, d.Column, d.IndexID)
		if cerr != nil {
			return t, fmt.Errorf("engine: DDL replay: create index %s: %w", d.Index, cerr)
		}
		return t, nil
	case catalog.KindDropIndex:
		tab := db.Table(d.Table)
		if tab == nil {
			return at, nil
		}
		if err := tab.dropSecondaryByName(d.Index); err != nil && !errors.Is(err, ErrNoIndex) {
			return at, err
		}
		return at, nil
	}
	return at, fmt.Errorf("engine: DDL replay: unknown kind %d", d.Kind)
}

// SnapshotToken returns a stable snapshot token for AS OF reads: every
// transaction below it is decided (committed or aborted), and every future
// commit receives an id at or above it, so a read-only transaction pinned at
// the token (BeginReadOnlyAt) sees a frozen, consistent database state no
// matter when it runs — including after a crash, since recovery rebuilds the
// CLOG and restores the id sequence past the token.
func (db *DB) SnapshotToken() uint64 {
	if db.replica.Load() {
		return db.replicaXMax.Load()
	}
	return uint64(db.txm.Horizon())
}

// BeginReadOnlyAt starts a read-only transaction whose snapshot is pinned at
// token (from SnapshotToken, possibly captured long ago): the AS OF
// time-travel primitive. While the transaction runs it pins the GC horizon,
// so maintenance never reclaims versions out from under it. Between captures
// a token is protected only by Options.GCRetention: once the horizon has
// advanced more than GCRetention ids past the token, superseded versions it
// needs may be reclaimed and the token sees fewer rows than when captured —
// the store's documented time-travel retention limit.
func (db *DB) BeginReadOnlyAt(token uint64) *txn.Tx {
	return db.txm.BeginReadOnlyAt(txn.ID(token))
}
