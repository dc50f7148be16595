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
	return s.AppendRow(nil, r)
}

// AppendRow appends the encoding EncodeRow returns to dst and returns the
// extended slice, so a caller with a scratch buffer encodes without
// allocating. On error it returns nil; dst's first len(dst) bytes are
// untouched either way.
func (s *Schema) AppendRow(dst []byte, r Row) ([]byte, error) {
	if len(r) != len(s.Cols) {
		return nil, fmt.Errorf("tuple: row has %d values, schema has %d columns", len(r), len(s.Cols))
	}
	b := dst
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
	off := 0
	for i, c := range s.Cols {
		v, next, err := nextField(b, off, c)
		if err != nil {
			return nil, err
		}
		off = next
		switch {
		case v.null:
		case c.Type == TypeInt64:
			r[i] = v.i
		case c.Type == TypeFloat64:
			r[i] = math.Float64frombits(uint64(v.i))
		case c.Type == TypeString:
			r[i] = string(v.raw)
		case c.Type == TypeBytes:
			r[i] = v.raw
		default: // TypeBool
			r[i] = v.i != 0
		}
	}
	if off != len(b) {
		return nil, trailing(b, off)
	}
	return r, nil
}

// Int64Col reads int64 column col of the encoded row b without building the
// row: 0 when the value is NULL or the column is not an int64. It steps over
// and checks every column the way DecodeRow does, so it fails exactly when
// DecodeRow would.
func (s *Schema) Int64Col(b []byte, col int) (int64, error) {
	var v int64
	off := 0
	for i, c := range s.Cols {
		f, next, err := nextField(b, off, c)
		if err != nil {
			return 0, err
		}
		off = next
		if i == col && c.Type == TypeInt64 {
			v = f.i // 0 when NULL
		}
	}
	if off != len(b) {
		return 0, trailing(b, off)
	}
	return v, nil
}

// field is one column's value as nextField reads it: NULL, or the bits of an
// int64, float64 or bool in i, or the bytes of a string or bytes value in raw
// (aliasing the row, capacity-capped).
type field struct {
	null bool
	i    int64
	raw  []byte
}

// nextField is the one decoder of a column: it reads column c's value from
// the encoded row b at off, strictly (see DecodeRow), and returns it with the
// offset of the next column.
func nextField(b []byte, off int, c Column) (field, int, error) {
	if off >= len(b) {
		return field{}, 0, fmt.Errorf("tuple: row truncated at column %s", c.Name)
	}
	present := b[off]
	off++
	if present == 0 {
		return field{null: true}, off, nil
	}
	// Strict: rows arrive over the wire, and a canonical encoding (one byte
	// pattern per row) keeps decode→encode the identity.
	if present != 1 {
		return field{}, 0, fmt.Errorf("tuple: bad presence byte %d at column %s", present, c.Name)
	}
	var tmp [binary.MaxVarintLen64]byte
	switch c.Type {
	case TypeInt64:
		v, n := binary.Varint(b[off:])
		if n <= 0 || n != binary.PutVarint(tmp[:], v) {
			return field{}, 0, fmt.Errorf("tuple: bad varint at column %s", c.Name)
		}
		return field{i: v}, off + n, nil
	case TypeFloat64:
		if off+8 > len(b) {
			return field{}, 0, fmt.Errorf("tuple: row truncated at column %s", c.Name)
		}
		return field{i: int64(binary.LittleEndian.Uint64(b[off:]))}, off + 8, nil
	case TypeString, TypeBytes:
		l, n := binary.Uvarint(b[off:])
		if n <= 0 || n != binary.PutUvarint(tmp[:], l) || l > uint64(len(b)-off-n) {
			return field{}, 0, fmt.Errorf("tuple: bad %s at column %s", c.Type, c.Name)
		}
		off += n
		end := off + int(l)
		return field{raw: b[off:end:end]}, end, nil
	case TypeBool:
		if off >= len(b) {
			return field{}, 0, fmt.Errorf("tuple: row truncated at column %s", c.Name)
		}
		if b[off] > 1 {
			return field{}, 0, fmt.Errorf("tuple: bad bool byte %d at column %s", b[off], c.Name)
		}
		return field{i: int64(b[off])}, off + 1, nil
	}
	return field{}, 0, fmt.Errorf("tuple: column %s: unsupported type %v", c.Name, c.Type)
}

func trailing(b []byte, off int) error {
	return fmt.Errorf("tuple: %d trailing bytes after row", len(b)-off)
}
