// Package catalog defines the durable representation of schema changes.
//
// The catalog itself is volatile state inside the engine (a map of tables,
// each with a primary index and zero or more secondary B+ trees); what makes
// it durable is the WAL. Every CREATE/DROP TABLE and CREATE/DROP INDEX is
// encoded by this package into the Data field of a wal.RecDDL record and
// appended to the log like any heap write. Recovery replays DDL records in
// LSN order before redoing heap pages, so tables exist by the time their
// tuples are re-applied; replication ships the same records to followers,
// whose replay path applies them through the identical code.
//
// DDL records carry the relation ids the primary assigned (heap, primary
// index, secondary index), not just names. Replay therefore reconstructs the
// exact id mapping — which the space allocator's extent records and every
// heap record reference — instead of re-deriving it from creation order.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sias/internal/tuple"
)

// Kind enumerates DDL record kinds.
type Kind uint8

// DDL record kinds. Values are persisted in the WAL; never renumber.
const (
	KindCreateTable Kind = 1
	KindDropTable   Kind = 2
	KindCreateIndex Kind = 3
	KindDropIndex   Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindCreateTable:
		return "create-table"
	case KindDropTable:
		return "drop-table"
	case KindCreateIndex:
		return "create-index"
	case KindDropIndex:
		return "drop-index"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MaxNameLen bounds table, index and column names.
const MaxNameLen = 64

// MaxCols bounds a table's columns. With MaxNameLen it keeps a create-table
// record under 70 KB, far below the largest record the WAL accepts.
const MaxCols = 1024

// ErrBadName reports an identifier that violates the naming rules.
var ErrBadName = errors.New("catalog: invalid name")

// ValidateName enforces the identifier rules shared by tables, indexes and
// columns: 1..MaxNameLen characters from [A-Za-z0-9_], not starting with a
// digit.
func ValidateName(s string) error {
	if len(s) == 0 || len(s) > MaxNameLen {
		return fmt.Errorf("%w: %q (must be 1..%d chars)", ErrBadName, s, MaxNameLen)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("%w: %q (must not start with a digit)", ErrBadName, s)
			}
		default:
			return fmt.Errorf("%w: %q (allowed: letters, digits, underscore)", ErrBadName, s)
		}
	}
	return nil
}

// DDL is one decoded schema change. Only the fields relevant to Kind are
// populated (see Encode for the per-kind wire layout).
type DDL struct {
	Kind  Kind
	Table string

	// KindCreateTable.
	PKCol  string
	Cols   []tuple.Column
	HeapID uint32 // relation id of the heap
	PKID   uint32 // relation id of the primary B+ tree

	// KindCreateIndex / KindDropIndex.
	Index   string
	Column  string // indexed column; must have tuple.TypeInt64
	IndexID uint32 // relation id of the secondary B+ tree
}

// ErrCorrupt reports a DDL payload that does not decode.
var ErrCorrupt = errors.New("catalog: corrupt ddl record")

// Payload layout (little-endian):
//
//	u8 kind | u16 len + table name | kind-specific fields
//
//	create-table: u32 heapID | u32 pkID | str pkCol | u16 ncols |
//	              ncols x { str name | u8 type }
//	drop-table:   (nothing)
//	create-index: u32 indexID | str index | str column
//	drop-index:   str index
//
// Strings are u16-length-prefixed; MaxNameLen bounds them well below that.

func putStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func getStr(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrCorrupt
	}
	return string(b[:n]), b[n:], nil
}

// Encode serializes d for a wal.RecDDL record.
func Encode(d *DDL) []byte {
	b := []byte{byte(d.Kind)}
	b = putStr(b, d.Table)
	switch d.Kind {
	case KindCreateTable:
		b = binary.LittleEndian.AppendUint32(b, d.HeapID)
		b = binary.LittleEndian.AppendUint32(b, d.PKID)
		b = putStr(b, d.PKCol)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(d.Cols)))
		for _, c := range d.Cols {
			b = putStr(b, c.Name)
			b = append(b, byte(c.Type))
		}
	case KindCreateIndex:
		b = binary.LittleEndian.AppendUint32(b, d.IndexID)
		b = putStr(b, d.Index)
		b = putStr(b, d.Column)
	case KindDropIndex:
		b = putStr(b, d.Index)
	}
	return b
}

// Decode parses a wal.RecDDL payload. It rejects trailing bytes, unknown
// kinds and malformed fields, so a corrupt record fails replay loudly
// instead of installing half a schema.
func Decode(b []byte) (*DDL, error) {
	if len(b) < 1 {
		return nil, ErrCorrupt
	}
	d := &DDL{Kind: Kind(b[0])}
	b = b[1:]
	var err error
	if d.Table, b, err = getStr(b); err != nil {
		return nil, err
	}
	switch d.Kind {
	case KindCreateTable:
		if len(b) < 8 {
			return nil, ErrCorrupt
		}
		d.HeapID = binary.LittleEndian.Uint32(b)
		d.PKID = binary.LittleEndian.Uint32(b[4:])
		b = b[8:]
		if d.PKCol, b, err = getStr(b); err != nil {
			return nil, err
		}
		if len(b) < 2 {
			return nil, ErrCorrupt
		}
		ncols := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		d.Cols = make([]tuple.Column, ncols)
		for i := range d.Cols {
			if d.Cols[i].Name, b, err = getStr(b); err != nil {
				return nil, err
			}
			if len(b) < 1 {
				return nil, ErrCorrupt
			}
			d.Cols[i].Type = tuple.ColType(b[0])
			b = b[1:]
		}
	case KindDropTable:
	case KindCreateIndex:
		if len(b) < 4 {
			return nil, ErrCorrupt
		}
		d.IndexID = binary.LittleEndian.Uint32(b)
		b = b[4:]
		if d.Index, b, err = getStr(b); err != nil {
			return nil, err
		}
		if d.Column, b, err = getStr(b); err != nil {
			return nil, err
		}
	case KindDropIndex:
		if d.Index, b, err = getStr(b); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, d.Kind)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b))
	}
	return d, nil
}
