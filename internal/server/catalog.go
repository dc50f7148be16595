package server

import (
	"encoding/json"
	"fmt"

	"sias/internal/catalog"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/wire"
)

// This file dispatches the catalog half of the wire protocol (ops 12-25):
// snapshot tokens and AS OF transactions, DDL, and typed row operations
// against catalog tables. DDL is auto-committed — each statement is durable
// in every shard's WAL (RecDDL) before CodeOK goes back — and therefore
// replays on crash recovery and ships to replication followers like any
// other record. Typed row ops run inside the same wire transactions as the
// kv ops, routed by primary key hash.

// handleSnapshot answers SNAPSHOT: one stable AS OF token per shard.
func (c *session) handleSnapshot() ([]byte, error) {
	toks := c.srv.cfg.Router.SnapshotTokens()
	b := c.reply()
	b.U32(uint32(len(toks)))
	for _, tok := range toks {
		b.U64(tok)
	}
	return b.B, nil
}

// handleBeginAt opens a read-only transaction pinned at a token vector and
// registers it under a fresh handle; the usual COMMIT/ABORT release it.
func (c *session) handleBeginAt(r *wire.Reader) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	if int(n) != c.srv.cfg.Router.N() {
		return nil, fmt.Errorf("%w: BEGIN_AT with %d tokens, server has %d shards", wire.ErrBadRequest, n, c.srv.cfg.Router.N())
	}
	tokens := make([]uint64, n)
	for i := range tokens {
		if tokens[i], err = r.U64(); err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
	}
	tx, err := c.srv.cfg.Router.BeginAt(tokens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	return c.open(tx), nil
}

// handleDDL executes one auto-committed DDL statement across all shards.
func (c *session) handleDDL(op wire.Op, r *wire.Reader) ([]byte, error) {
	router := c.srv.cfg.Router
	str := func() (string, error) {
		b, err := r.Bytes()
		if err != nil {
			return "", fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
		return string(b), nil
	}
	switch op {
	case wire.OpCreateTable:
		name, err := str()
		if err != nil {
			return nil, err
		}
		pk, err := str()
		if err != nil {
			return nil, err
		}
		ncols, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
		if ncols == 0 || ncols > catalog.MaxCols {
			return nil, fmt.Errorf("%w: CREATE TABLE with %d columns", wire.ErrBadRequest, ncols)
		}
		cols := make([]tuple.Column, 0, ncols)
		for i := uint32(0); i < ncols; i++ {
			cn, err := str()
			if err != nil {
				return nil, err
			}
			ct, err := r.U8()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
			}
			cols = append(cols, tuple.Column{Name: cn, Type: tuple.ColType(ct)})
		}
		return nil, router.CreateTable(name, tuple.NewSchema(cols...), pk)

	case wire.OpDropTable:
		name, err := str()
		if err != nil {
			return nil, err
		}
		return nil, router.DropTable(name)

	case wire.OpCreateIndex:
		table, err := str()
		if err != nil {
			return nil, err
		}
		index, err := str()
		if err != nil {
			return nil, err
		}
		column, err := str()
		if err != nil {
			return nil, err
		}
		return nil, router.CreateIndex(table, index, column)

	default: // wire.OpDropIndex
		table, err := str()
		if err != nil {
			return nil, err
		}
		index, err := str()
		if err != nil {
			return nil, err
		}
		return nil, router.DropIndex(table, index)
	}
}

// handleRowOp executes one typed row operation inside a wire transaction.
// Rows cross the wire as tuple.Schema encodings of the target table's
// schema; a row that does not decode is a bad request, not an engine error.
func (c *session) handleRowOp(op wire.Op, tx *shard.Txn, r *wire.Reader) ([]byte, error) {
	tb, err := r.Bytes()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	table := string(tb)
	meta, err := c.srv.cfg.Router.TableMeta(table)
	if err != nil {
		return nil, err
	}
	sch := meta.Schema()

	switch op {
	case wire.OpInsertRow, wire.OpUpdateRow:
		enc, err := r.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
		// The row's bytes columns alias what they decode from, and enc lives
		// in the session's request buffer: decode a copy.
		row, err := sch.DecodeRow(append([]byte(nil), enc...))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
		if op == wire.OpInsertRow {
			return nil, tx.InsertRow(table, row)
		}
		return nil, tx.UpdateRow(table, row)

	case wire.OpGetRow, wire.OpDeleteRow:
		key, err := r.I64()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
		if op == wire.OpDeleteRow {
			return nil, tx.DeleteRow(table, key)
		}
		row, err := tx.GetRow(table, key)
		if err != nil {
			return nil, err
		}
		enc, err := sch.EncodeRow(row)
		if err != nil {
			return nil, fmt.Errorf("server: encode row: %v", err)
		}
		b := c.reply()
		b.Bytes(enc)
		return b.B, nil

	case wire.OpScanTable:
		lo, hi, limit, err := rangeArgs(r)
		if err != nil {
			return nil, err
		}
		entries := c.countedReply()
		count := uint32(0)
		var encErr error
		err = tx.ScanTable(table, lo, hi, func(row tuple.Row) bool {
			enc, e := sch.EncodeRow(row)
			if e != nil {
				encErr = e
				return false
			}
			entries.Bytes(enc)
			count++
			return limit == 0 || count < limit
		})
		if err != nil {
			return nil, err
		}
		if encErr != nil {
			return nil, fmt.Errorf("server: encode row: %v", encErr)
		}
		return counted(count, entries), nil

	default: // wire.OpIndexRange
		ib, err := r.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
		lo, hi, limit, err := rangeArgs(r)
		if err != nil {
			return nil, err
		}
		entries := c.countedReply()
		count := uint32(0)
		var encErr error
		err = tx.IndexRange(table, string(ib), lo, hi, func(ikey int64, row tuple.Row) bool {
			enc, e := sch.EncodeRow(row)
			if e != nil {
				encErr = e
				return false
			}
			entries.I64(ikey)
			entries.Bytes(enc)
			count++
			return limit == 0 || count < limit
		})
		if err != nil {
			return nil, err
		}
		if encErr != nil {
			return nil, fmt.Errorf("server: encode row: %v", encErr)
		}
		return counted(count, entries), nil
	}
}

// ColDesc is one column in a LIST_TABLES reply. Type is the numeric
// tuple.ColType (stable wire value); TypeName is its display form.
type ColDesc struct {
	Name     string `json:"name"`
	Type     uint8  `json:"type"`
	TypeName string `json:"type_name"`
}

// IndexDesc is one live secondary index in a LIST_TABLES reply.
type IndexDesc struct {
	Name   string `json:"name"`
	Column string `json:"column"`
}

// TableDesc is one table in a LIST_TABLES reply.
type TableDesc struct {
	Name    string      `json:"name"`
	PK      string      `json:"pk"`
	Cols    []ColDesc   `json:"cols"`
	Indexes []IndexDesc `json:"indexes"`
}

// handleListTables answers LIST_TABLES with the shard-0 catalog (catalogs
// are identical across shards by construction).
func (c *session) handleListTables() ([]byte, error) {
	db := c.srv.cfg.Router.Shard(0).Facade.DB()
	var out []TableDesc
	for _, tab := range db.Tables() {
		td := TableDesc{Name: tab.Name(), PK: tab.PKCol()}
		for _, col := range tab.Schema().Cols {
			td.Cols = append(td.Cols, ColDesc{
				Name: col.Name, Type: uint8(col.Type), TypeName: col.Type.String(),
			})
		}
		for _, ix := range tab.Secondaries() {
			if ix.Column == "" {
				continue // programmatic keyFn index: not wire-addressable
			}
			td.Indexes = append(td.Indexes, IndexDesc{Name: ix.Name, Column: ix.Column})
		}
		out = append(out, td)
	}
	return json.Marshal(out)
}
