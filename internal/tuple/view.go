package tuple

import (
	"fmt"
	"math"
)

// View is one encoded row, checked once against its schema and then read
// column by column where it lies: no Row, no boxed values, no copied strings
// unless a caller asks for them. Schema.View accepts exactly the bytes
// DecodeRow accepts, so a View's accessors cannot fail.
//
// A View aliases the bytes it was made from and is valid only as long as
// they are, exactly like a row DecodeRow returns. A typed accessor on a
// column of another type panics, as a type assertion on that row's value
// would.
type View struct {
	s *Schema
	b []byte
	// offs[i] is where column i starts in b, for the first n columns: the
	// check records them, so an accessor decodes its column without walking
	// the ones before it. Past n (a wide schema, or a row longer than 64
	// KiB) it walks on from the last recorded column.
	offs [viewOffsets]uint16
	n    uint8
}

// viewOffsets is how many leading column offsets a View records.
const viewOffsets = 16

// View checks that b is a row of s — every column through checkField, the
// strict walk DecodeRow makes — and returns a view of it. Checking allocates
// nothing.
func (s *Schema) View(b []byte) (View, error) {
	v := View{s: s, b: b}
	off := 0
	for i, c := range s.Cols {
		if i < viewOffsets && off <= math.MaxUint16 {
			v.offs[i] = uint16(off)
			v.n = uint8(i + 1)
		}
		next, err := checkField(b, off, c)
		if err != nil {
			return View{}, err
		}
		off = next
	}
	if off != len(b) {
		return View{}, trailing(b, off)
	}
	return v, nil
}

// Schema returns the schema the view was checked against.
func (v *View) Schema() *Schema { return v.s }

// Encoded returns the row's encoding: the bytes the view reads.
func (v *View) Encoded() []byte { return v.b }

// start returns where column col starts in v.b.
func (v *View) start(col int) int {
	if col < int(v.n) {
		return int(v.offs[col])
	}
	return v.walk(col)
}

// walk finds where column col starts past the recorded offsets.
func (v *View) walk(col int) int {
	i, off := 0, 0
	if v.n > 0 {
		i, off = int(v.n)-1, int(v.offs[v.n-1])
	}
	for ; i < col; i++ {
		_, off = fieldAt(v.b, off, v.s.Cols[i].Type)
	}
	return off
}

// typed returns column col's value, which must be of type t; TypeBytes also
// reads a string column.
func (v *View) typed(col int, t ColType) field {
	if c := &v.s.Cols[col]; c.Type != t && !(t == TypeBytes && c.Type == TypeString) {
		wrongType(*c, t)
	}
	f, _ := fieldAt(v.b, v.start(col), t)
	return f
}

func wrongType(c Column, t ColType) {
	panic(fmt.Sprintf("tuple: column %s is %v, read as %v", c.Name, c.Type, t))
}

// Null reports whether column col is NULL.
func (v *View) Null(col int) bool { return v.b[v.start(col)] == 0 }

// Int64 returns int64 column col; NULL reads 0.
func (v *View) Int64(col int) int64 { return v.typed(col, TypeInt64).i }

// Float64 returns float64 column col; NULL reads 0.
func (v *View) Float64(col int) float64 {
	return math.Float64frombits(uint64(v.typed(col, TypeFloat64).i))
}

// Bool returns bool column col; NULL reads false.
func (v *View) Bool(col int) bool { return v.typed(col, TypeBool).i != 0 }

// String returns string column col as a new string; NULL reads "".
func (v *View) String(col int) string { return string(v.typed(col, TypeString).raw) }

// Bytes returns the bytes of string or bytes column col without copying
// them: the slice aliases the view (capacity-capped). NULL reads nil.
func (v *View) Bytes(col int) []byte { return v.typed(col, TypeBytes).raw }

// Row decodes every column: the Row DecodeRow returns for the same bytes,
// with bytes columns aliasing the view.
func (v *View) Row() Row {
	r := make(Row, len(v.s.Cols))
	off := 0
	for i, c := range v.s.Cols {
		var f field
		f, off = fieldAt(v.b, off, c.Type)
		r[i] = f.value(c.Type)
	}
	return r
}

// value boxes f as the Row value of a column of type t.
func (f field) value(t ColType) any {
	switch {
	case f.null:
		return nil
	case t == TypeInt64:
		return f.i
	case t == TypeFloat64:
		return math.Float64frombits(uint64(f.i))
	case t == TypeString:
		return string(f.raw)
	case t == TypeBytes:
		return f.raw
	default: // TypeBool
		return f.i != 0
	}
}

// Edit is a viewed row with some of its columns set. Its encoding (Append)
// copies the bytes of the columns left alone and encodes only the ones set,
// and is byte for byte EncodeRow of the decoded row with those columns set:
// setting a column twice keeps the last value, and a value whose type is
// not its column's fails Append as it fails EncodeRow. An Edit lives on its
// caller's stack and allocates nothing unless it sets more than inlineSets
// columns.
type Edit struct {
	v    View
	n    int
	sets [inlineSets]colSet
	more []colSet
}

// inlineSets is how many set columns an Edit holds without allocating.
const inlineSets = 6

// colSet is one set column and its new value, typed by the setter: NULL, an
// int64, the bits of a float64 or a bool in i, a string in s, bytes in b.
type colSet struct {
	col  int
	typ  ColType
	null bool
	i    int64
	s    string
	b    []byte
}

// Edit starts an edit of the row v.
func (v *View) Edit() Edit { return Edit{v: *v} }

func (e *Edit) set(c colSet) {
	if p := e.lookup(c.col); p != nil {
		*p = c
		return
	}
	if e.n < len(e.sets) {
		e.sets[e.n] = c
		e.n++
		return
	}
	e.more = append(e.more, c)
}

// lookup returns the set of column col, or nil.
func (e *Edit) lookup(col int) *colSet {
	for i := 0; i < e.n; i++ {
		if e.sets[i].col == col {
			return &e.sets[i]
		}
	}
	for i := range e.more {
		if e.more[i].col == col {
			return &e.more[i]
		}
	}
	return nil
}

// SetNull sets column col to NULL.
func (e *Edit) SetNull(col int) { e.set(colSet{col: col, null: true}) }

// SetInt64 sets int64 column col to x.
func (e *Edit) SetInt64(col int, x int64) { e.set(colSet{col: col, typ: TypeInt64, i: x}) }

// SetFloat64 sets float64 column col to x.
func (e *Edit) SetFloat64(col int, x float64) {
	e.set(colSet{col: col, typ: TypeFloat64, i: int64(math.Float64bits(x))})
}

// SetString sets string column col to x.
func (e *Edit) SetString(col int, x string) { e.set(colSet{col: col, typ: TypeString, s: x}) }

// SetBytes sets bytes column col to x; Append copies x.
func (e *Edit) SetBytes(col int, x []byte) { e.set(colSet{col: col, typ: TypeBytes, b: x}) }

// SetBool sets bool column col to x.
func (e *Edit) SetBool(col int, x bool) {
	var i int64
	if x {
		i = 1
	}
	e.set(colSet{col: col, typ: TypeBool, i: i})
}

// Append appends the edited row's encoding to dst and returns the extended
// slice. On error it returns nil; dst's first len(dst) bytes are untouched
// either way.
func (e *Edit) Append(dst []byte) ([]byte, error) {
	cols := e.v.s.Cols
	b := dst
	off, kept := 0, 0 // kept: where the untouched bytes not yet copied start
	set := 0
	for i, c := range cols {
		_, next := fieldAt(e.v.b, off, c.Type)
		if cs := e.lookup(i); cs != nil {
			b = append(b, e.v.b[kept:off]...)
			var err error
			if b, err = cs.append(b, c); err != nil {
				return nil, err
			}
			kept = next
			set++
		}
		off = next
	}
	if set != e.n+len(e.more) {
		return nil, fmt.Errorf("tuple: edit sets a column outside the row's %d", len(cols))
	}
	return append(b, e.v.b[kept:]...), nil
}

// append encodes the set value into column c's place.
func (cs *colSet) append(b []byte, c Column) ([]byte, error) {
	if cs.null {
		return append(b, 0), nil
	}
	if cs.typ != c.Type {
		return nil, typeError(c, cs.value())
	}
	switch cs.typ {
	case TypeInt64:
		return appendInt64(b, cs.i), nil
	case TypeFloat64:
		return appendFloat64(b, math.Float64frombits(uint64(cs.i))), nil
	case TypeString:
		return appendString(b, cs.s), nil
	case TypeBytes:
		return appendString(b, cs.b), nil
	default: // TypeBool
		return appendBool(b, cs.i != 0), nil
	}
}

// value boxes the set value (for an error message).
func (cs *colSet) value() any {
	switch cs.typ {
	case TypeString:
		return cs.s
	case TypeBytes:
		return cs.b
	}
	return field{i: cs.i}.value(cs.typ)
}
