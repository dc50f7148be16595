package client

import (
	"encoding/json"
	"fmt"

	"sias/internal/server"
	"sias/internal/tuple"
	"sias/internal/wire"
)

// Catalog client API: DDL, snapshot tokens with AS OF transactions, and
// typed row operations against catalog tables. Typed rows are encoded with
// the table's tuple.Schema; the client caches schemas from its own
// CreateTable calls and refreshes the cache from LIST_TABLES when it meets a
// table another client created.

// control runs one op on a pooled connection outside any transaction,
// retrying overload rejections like data ops.
func (c *Client) control(op wire.Op, payload []byte) ([]byte, error) {
	var resp []byte
	err := withRetry(func() error {
		cn, err := c.get()
		if err != nil {
			return err
		}
		resp, err = cn.call(op, payload)
		c.put(cn)
		return err
	})
	return resp, err
}

// CreateTable creates a table on every shard. The DDL is durable (WAL-logged
// on each shard) before this returns.
func (c *Client) CreateTable(name string, sch *tuple.Schema, pkCol string) error {
	var b wire.Buf
	b.Bytes([]byte(name))
	b.Bytes([]byte(pkCol))
	b.U32(uint32(len(sch.Cols)))
	for _, col := range sch.Cols {
		b.Bytes([]byte(col.Name))
		b.U8(uint8(col.Type))
	}
	if _, err := c.control(wire.OpCreateTable, b.B); err != nil {
		return err
	}
	c.mu.Lock()
	if c.schemas == nil {
		c.schemas = map[string]*tuple.Schema{}
	}
	c.schemas[name] = sch
	c.mu.Unlock()
	return nil
}

// DropTable drops a table on every shard.
func (c *Client) DropTable(name string) error {
	var b wire.Buf
	b.Bytes([]byte(name))
	_, err := c.control(wire.OpDropTable, b.B)
	c.mu.Lock()
	delete(c.schemas, name)
	c.mu.Unlock()
	return err
}

// CreateIndex creates a secondary index over an int64 column of table.
func (c *Client) CreateIndex(table, index, column string) error {
	var b wire.Buf
	b.Bytes([]byte(table))
	b.Bytes([]byte(index))
	b.Bytes([]byte(column))
	_, err := c.control(wire.OpCreateIndex, b.B)
	return err
}

// DropIndex drops a secondary index.
func (c *Client) DropIndex(table, index string) error {
	var b wire.Buf
	b.Bytes([]byte(table))
	b.Bytes([]byte(index))
	_, err := c.control(wire.OpDropIndex, b.B)
	return err
}

// ListTables fetches the catalog and refreshes the local schema cache.
func (c *Client) ListTables() ([]server.TableDesc, error) {
	resp, err := c.control(wire.OpListTables, nil)
	if err != nil {
		return nil, err
	}
	var out []server.TableDesc
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("client: decode table list: %w", err)
	}
	c.mu.Lock()
	if c.schemas == nil {
		c.schemas = map[string]*tuple.Schema{}
	}
	for _, td := range out {
		cols := make([]tuple.Column, len(td.Cols))
		for i, cd := range td.Cols {
			cols[i] = tuple.Column{Name: cd.Name, Type: tuple.ColType(cd.Type)}
		}
		c.schemas[td.Name] = tuple.NewSchema(cols...)
	}
	c.mu.Unlock()
	return out, nil
}

// schemaOf resolves a table's schema from the cache, falling back to one
// LIST_TABLES round trip for tables created elsewhere.
func (c *Client) schemaOf(table string) (*tuple.Schema, error) {
	c.mu.Lock()
	sch := c.schemas[table]
	c.mu.Unlock()
	if sch != nil {
		return sch, nil
	}
	if _, err := c.ListTables(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	sch = c.schemas[table]
	c.mu.Unlock()
	if sch == nil {
		return nil, fmt.Errorf("client: unknown table %q", table)
	}
	return sch, nil
}

// Snapshot captures one stable AS OF token per shard. Pass the vector to
// BeginAt for a time-travel read of this exact state.
func (c *Client) Snapshot() ([]uint64, error) {
	resp, err := c.control(wire.OpSnapshot, nil)
	if err != nil {
		return nil, err
	}
	r := wire.Reader{B: resp}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	tokens := make([]uint64, n)
	for i := range tokens {
		if tokens[i], err = r.U64(); err != nil {
			return nil, err
		}
	}
	return tokens, nil
}

// BeginAt opens a read-only transaction pinned at a Snapshot token vector.
// Reads see the database exactly as of the snapshot; writes are rejected
// with engine.ErrReadOnly. Versions vacuumed since the snapshot was taken
// are gone — tokens older than the maintenance horizon read fewer rows than
// they did live.
func (c *Client) BeginAt(tokens []uint64) (*Tx, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	var handle uint64
	err = withRetry(func() error {
		var b wire.Buf
		b.U32(uint32(len(tokens)))
		for _, tok := range tokens {
			b.U64(tok)
		}
		resp, err := cn.call(wire.OpBeginAt, b.B)
		if err != nil {
			return err
		}
		r := wire.Reader{B: resp}
		handle, err = r.U64()
		return err
	})
	if err != nil {
		c.put(cn)
		return nil, err
	}
	return &Tx{c: c, cn: cn, handle: handle, readOnly: true}, nil
}

// rowCall is the shared prefix of typed row requests: handle, table name.
func (t *Tx) rowCall(op wire.Op, table string, build func(*wire.Buf)) ([]byte, error) {
	return t.call(op, func(b *wire.Buf) {
		b.Bytes([]byte(table))
		if build != nil {
			build(b)
		}
	})
}

// InsertRow stores a typed row in table. Like Insert, behind the
// transaction's first operation it does not wait for the server: its failure
// is returned by the next call that waits or by Commit.
func (t *Tx) InsertRow(table string, row tuple.Row) error {
	return t.putRow(wire.OpInsertRow, table, row)
}

// UpdateRow replaces the row sharing row's primary key (full-row replace).
func (t *Tx) UpdateRow(table string, row tuple.Row) error {
	return t.putRow(wire.OpUpdateRow, table, row)
}

// putRow sends a row-carrying write: the row in the table's schema encoding.
func (t *Tx) putRow(op wire.Op, table string, row tuple.Row) error {
	sch, err := t.c.schemaOf(table)
	if err != nil {
		return err
	}
	enc, err := sch.EncodeRow(row)
	if err != nil {
		return err
	}
	_, err = t.rowCall(op, table, func(b *wire.Buf) { b.Bytes(enc) })
	return err
}

// GetRow returns the visible row of key in table.
func (t *Tx) GetRow(table string, key int64) (tuple.Row, error) {
	sch, err := t.c.schemaOf(table)
	if err != nil {
		return nil, err
	}
	resp, err := t.rowCall(wire.OpGetRow, table, func(b *wire.Buf) { b.I64(key) })
	if err != nil {
		return nil, err
	}
	r := wire.Reader{B: resp}
	enc, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	return sch.DecodeRow(enc)
}

// DeleteRow removes the row of key in table.
func (t *Tx) DeleteRow(table string, key int64) error {
	_, err := t.rowCall(wire.OpDeleteRow, table, func(b *wire.Buf) { b.I64(key) })
	return err
}

// decodeRows parses a count-prefixed row list.
func decodeRows(sch *tuple.Schema, resp []byte) ([]tuple.Row, error) {
	r := wire.Reader{B: resp}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	out := make([]tuple.Row, 0, n)
	for i := uint32(0); i < n; i++ {
		enc, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		row, err := sch.DecodeRow(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// ScanRows returns up to limit visible rows of table with lo <= primary key
// <= hi in global key order (limit 0 = unlimited).
func (t *Tx) ScanRows(table string, lo, hi int64, limit int) ([]tuple.Row, error) {
	sch, err := t.c.schemaOf(table)
	if err != nil {
		return nil, err
	}
	resp, err := t.rowCall(wire.OpScanTable, table, func(b *wire.Buf) {
		b.I64(lo)
		b.I64(hi)
		b.U32(uint32(limit))
	})
	if err != nil {
		return nil, err
	}
	return decodeRows(sch, resp)
}

// IndexEntry is one IndexRange result: the indexed column value and its row.
type IndexEntry struct {
	Key int64
	Row tuple.Row
}

// IndexRange returns up to limit visible rows of table with lo <= indexed
// value <= hi in global index-key order (limit 0 = unlimited). A point
// lookup is the range lo == hi.
func (t *Tx) IndexRange(table, index string, lo, hi int64, limit int) ([]IndexEntry, error) {
	sch, err := t.c.schemaOf(table)
	if err != nil {
		return nil, err
	}
	resp, err := t.rowCall(wire.OpIndexRange, table, func(b *wire.Buf) {
		b.Bytes([]byte(index))
		b.I64(lo)
		b.I64(hi)
		b.U32(uint32(limit))
	})
	if err != nil {
		return nil, err
	}
	r := wire.Reader{B: resp}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	out := make([]IndexEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		ikey, err := r.I64()
		if err != nil {
			return nil, err
		}
		enc, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		row, err := sch.DecodeRow(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, IndexEntry{Key: ikey, Row: row})
	}
	return out, nil
}
