package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ColType enumerates the column types supported by the row codec.
type ColType uint8

// Supported column types.
const (
	TypeInt64 ColType = iota
	TypeFloat64
	TypeString
	TypeBytes
	TypeBool
)

func (t ColType) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypeBytes:
		return "bytes"
	case TypeBool:
		return "bool"
	}
	return "invalid"
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered set of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Col returns the index of the named column, or -1.
func (s *Schema) Col(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Row is an ordered list of attribute values matching a schema. Allowed
// dynamic types: int64, float64, string, []byte, bool, nil.
type Row []any

// EncodeRow serializes a row against its schema. Every value is preceded by
// a presence byte (0 = NULL); variable-length values carry a uvarint length.
func (s *Schema) EncodeRow(r Row) ([]byte, error) {
	if len(r) != len(s.Cols) {
		return nil, fmt.Errorf("tuple: row has %d values, schema has %d columns", len(r), len(s.Cols))
	}
	var b []byte
	var tmp [binary.MaxVarintLen64]byte
	for i, c := range s.Cols {
		v := r[i]
		if v == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		switch c.Type {
		case TypeInt64:
			iv, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("tuple: column %s: want int64, got %T", c.Name, v)
			}
			n := binary.PutVarint(tmp[:], iv)
			b = append(b, tmp[:n]...)
		case TypeFloat64:
			fv, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("tuple: column %s: want float64, got %T", c.Name, v)
			}
			var fb [8]byte
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(fv))
			b = append(b, fb[:]...)
		case TypeString:
			sv, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("tuple: column %s: want string, got %T", c.Name, v)
			}
			n := binary.PutUvarint(tmp[:], uint64(len(sv)))
			b = append(b, tmp[:n]...)
			b = append(b, sv...)
		case TypeBytes:
			bv, ok := v.([]byte)
			if !ok {
				return nil, fmt.Errorf("tuple: column %s: want []byte, got %T", c.Name, v)
			}
			n := binary.PutUvarint(tmp[:], uint64(len(bv)))
			b = append(b, tmp[:n]...)
			b = append(b, bv...)
		case TypeBool:
			bv, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("tuple: column %s: want bool, got %T", c.Name, v)
			}
			if bv {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		default:
			return nil, fmt.Errorf("tuple: column %s: unsupported type %v", c.Name, c.Type)
		}
	}
	return b, nil
}

// DecodeRow deserializes a row previously encoded with EncodeRow. The
// decoder is strict — overlong varints, out-of-range presence/bool bytes and
// trailing garbage are rejected — so the encoding is canonical: every row
// has exactly one byte representation and decode→encode is the identity.
//
// A bytes column aliases b (capped, so appending to it cannot reach the next
// column): the row is valid only as long as b is. A caller that decodes bytes
// it does not own — page bytes under a latch, a reused request buffer —
// copies them first or drops the row before b changes.
func (s *Schema) DecodeRow(b []byte) (Row, error) {
	r := make(Row, len(s.Cols))
	var tmp [binary.MaxVarintLen64]byte
	off := 0
	for i, c := range s.Cols {
		if off >= len(b) {
			return nil, fmt.Errorf("tuple: row truncated at column %s", c.Name)
		}
		present := b[off]
		off++
		if present == 0 {
			r[i] = nil
			continue
		}
		// Strict: rows arrive over the wire, and a canonical encoding (one
		// byte pattern per row) keeps decode→encode the identity.
		if present != 1 {
			return nil, fmt.Errorf("tuple: bad presence byte %d at column %s", present, c.Name)
		}
		switch c.Type {
		case TypeInt64:
			v, n := binary.Varint(b[off:])
			if n <= 0 || n != binary.PutVarint(tmp[:], v) {
				return nil, fmt.Errorf("tuple: bad varint at column %s", c.Name)
			}
			off += n
			r[i] = v
		case TypeFloat64:
			if off+8 > len(b) {
				return nil, fmt.Errorf("tuple: row truncated at column %s", c.Name)
			}
			r[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		case TypeString:
			l, n := binary.Uvarint(b[off:])
			if n <= 0 || n != binary.PutUvarint(tmp[:], l) || l > uint64(len(b)-off-n) {
				return nil, fmt.Errorf("tuple: bad string at column %s", c.Name)
			}
			off += n
			r[i] = string(b[off : off+int(l)])
			off += int(l)
		case TypeBytes:
			l, n := binary.Uvarint(b[off:])
			if n <= 0 || n != binary.PutUvarint(tmp[:], l) || l > uint64(len(b)-off-n) {
				return nil, fmt.Errorf("tuple: bad bytes at column %s", c.Name)
			}
			off += n
			end := off + int(l)
			r[i] = b[off:end:end]
			off = end
		case TypeBool:
			if off >= len(b) {
				return nil, fmt.Errorf("tuple: row truncated at column %s", c.Name)
			}
			if b[off] > 1 {
				return nil, fmt.Errorf("tuple: bad bool byte %d at column %s", b[off], c.Name)
			}
			r[i] = b[off] != 0
			off++
		default:
			return nil, fmt.Errorf("tuple: column %s: unsupported type %v", c.Name, c.Type)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("tuple: %d trailing bytes after row", len(b)-off)
	}
	return r, nil
}
