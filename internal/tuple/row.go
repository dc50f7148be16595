package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
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
	for i, c := range s.Cols {
		v := r[i]
		if v == nil {
			b = append(b, 0)
			continue
		}
		var ok bool
		switch c.Type {
		case TypeInt64:
			var iv int64
			if iv, ok = v.(int64); ok {
				b = appendInt64(b, iv)
			}
		case TypeFloat64:
			var fv float64
			if fv, ok = v.(float64); ok {
				b = appendFloat64(b, fv)
			}
		case TypeString:
			var sv string
			if sv, ok = v.(string); ok {
				b = appendString(b, sv)
			}
		case TypeBytes:
			var bv []byte
			if bv, ok = v.([]byte); ok {
				b = appendString(b, bv)
			}
		case TypeBool:
			var bv bool
			if bv, ok = v.(bool); ok {
				b = appendBool(b, bv)
			}
		default:
			return nil, fmt.Errorf("tuple: column %s: unsupported type %v", c.Name, c.Type)
		}
		if !ok {
			return nil, typeError(c, v)
		}
	}
	return b, nil
}

// DecodeRow deserializes a row previously encoded with EncodeRow: the
// whole-row form of View, for callers that want every column. The decoder is
// strict — overlong varints, out-of-range presence/bool bytes and trailing
// garbage are rejected — so the encoding is canonical: every row has exactly
// one byte representation and decode→encode is the identity.
//
// A bytes column aliases b (capped, so appending to it cannot reach the next
// column): the row is valid only as long as b is. A caller that decodes bytes
// it does not own — page bytes under a latch, a reused request buffer —
// copies them first or drops the row before b changes.
func (s *Schema) DecodeRow(b []byte) (Row, error) {
	v, err := s.View(b)
	if err != nil {
		return nil, err
	}
	return v.Row(), nil
}

// appendInt64, appendFloat64, appendString and appendBool append one present
// value of their type: the presence byte 1, then the value. They are the one
// encoder of a column, shared by AppendRow and Edit.
func appendInt64(b []byte, v int64) []byte {
	return binary.AppendVarint(append(b, 1), v)
}

func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(v))
}

func appendString[T string | []byte](b []byte, v T) []byte {
	b = binary.AppendUvarint(append(b, 1), uint64(len(v)))
	return append(b, v...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1, 1)
	}
	return append(b, 1, 0)
}

// field is one column's value as fieldAt reads it: NULL, or the bits of an
// int64, float64 or bool in i, or the bytes of a string or bytes value in raw
// (aliasing the row, capacity-capped).
type field struct {
	null bool
	i    int64
	raw  []byte
}

// checkField is the one check of a column: it reads column c's encoding in
// the row b at off, strictly (see DecodeRow), and returns the offset of the
// next column. fieldAt then decodes what it accepted.
func checkField(b []byte, off int, c Column) (int, error) {
	if off >= len(b) {
		return 0, truncated(c)
	}
	present := b[off]
	off++
	if present == 0 {
		return off, nil
	}
	// Strict: rows arrive over the wire, and a canonical encoding (one byte
	// pattern per row) keeps decode→encode the identity.
	if present != 1 {
		return 0, fmt.Errorf("tuple: bad presence byte %d at column %s", present, c.Name)
	}
	switch c.Type {
	case TypeInt64:
		_, n := binary.Varint(b[off:])
		if !minimal(b[off:], n) {
			return 0, fmt.Errorf("tuple: bad varint at column %s", c.Name)
		}
		return off + n, nil
	case TypeFloat64:
		if off+8 > len(b) {
			return 0, truncated(c)
		}
		return off + 8, nil
	case TypeString, TypeBytes:
		l, n := binary.Uvarint(b[off:])
		if !minimal(b[off:], n) || l > uint64(len(b)-off-n) {
			return 0, fmt.Errorf("tuple: bad %s at column %s", c.Type, c.Name)
		}
		return off + n + int(l), nil
	case TypeBool:
		if off >= len(b) {
			return 0, truncated(c)
		}
		if b[off] > 1 {
			return 0, fmt.Errorf("tuple: bad bool byte %d at column %s", b[off], c.Name)
		}
		return off + 1, nil
	}
	return 0, fmt.Errorf("tuple: column %s: unsupported type %v", c.Name, c.Type)
}

// fieldAt decodes the value of a column of type t (TypeBytes reads either
// string or bytes) at off in a row checkField accepted, and returns it with
// the offset of the next column. The bytes were checked, so it checks
// nothing again.
func fieldAt(b []byte, off int, t ColType) (field, int) {
	if b[off] == 0 {
		return field{null: true}, off + 1
	}
	off++
	switch t {
	case TypeInt64:
		x, n := binary.Varint(b[off:])
		return field{i: x}, off + n
	case TypeFloat64:
		return field{i: int64(binary.LittleEndian.Uint64(b[off:]))}, off + 8
	case TypeString, TypeBytes:
		l, n := binary.Uvarint(b[off:])
		off += n
		end := off + int(l)
		return field{raw: b[off:end:end]}, end
	default: // TypeBool
		return field{i: int64(b[off])}, off + 1
	}
}

func truncated(c Column) error {
	return fmt.Errorf("tuple: row truncated at column %s", c.Name)
}

// minimal reports whether the n-byte varint at the start of b (n as
// binary.Uvarint or Varint returns it) is the one PutUvarint or PutVarint
// writes: it was read (n > 0), and a continuation did not end in a zero
// group, which only an overlong encoding has.
func minimal(b []byte, n int) bool {
	return n == 1 || n > 1 && b[n-1] != 0
}

func trailing(b []byte, off int) error {
	return fmt.Errorf("tuple: %d trailing bytes after row", len(b)-off)
}

// typeError reports a value whose Go type does not match its column's. It
// names the type without keeping v, so a row handed to AppendRow does not
// escape through its error path.
func typeError(c Column, v any) error {
	want := c.Type.String()
	if c.Type == TypeBytes {
		want = "[]byte"
	}
	return fmt.Errorf("tuple: column %s: want %s, got %s", c.Name, want, reflect.TypeOf(v))
}
