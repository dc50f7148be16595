package tuple

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func fuzzSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Type: TypeInt64},
		Column{Name: "score", Type: TypeFloat64},
		Column{Name: "name", Type: TypeString},
		Column{Name: "blob", Type: TypeBytes},
		Column{Name: "ok", Type: TypeBool},
	)
}

// FuzzDecodeRow throws arbitrary bytes at the row decoder: it must never
// panic, and anything it accepts must re-encode byte-identically (the codec
// is canonical — one encoding per row). Schema.View must accept exactly what
// DecodeRow accepts, and its accessors and Row must read DecodeRow's values.
// An accepted row is then edited: the edit's bytes must be EncodeRow of the
// decoded row with the same columns set.
func FuzzDecodeRow(f *testing.F) {
	s := fuzzSchema()
	for _, row := range []Row{
		{int64(1), 3.14, "alice", []byte{1, 2}, true},
		{int64(-9), 0.0, "", []byte{}, false},
		{nil, nil, nil, nil, nil},
		{int64(1 << 60), -1.5, "Ж", []byte{0xff}, true},
	} {
		b, err := s.EncodeRow(row)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := s.DecodeRow(data)
		v, verr := s.View(data)
		if (verr != nil) != (err != nil) {
			t.Fatalf("row % x: View fails with %v, DecodeRow with %v", data, verr, err)
		}
		if err != nil {
			return
		}
		checkView(t, v, row)
		out, err := s.EncodeRow(row)
		if err != nil {
			t.Fatalf("decoded row %v does not re-encode: %v", row, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("row % x decodes to %v which re-encodes to % x", data, row, out)
		}
		checkEdit(t, v, row, data)
	})
}

// checkView requires every accessor of v, and v.Row(), to read row's values.
func checkView(t *testing.T, v View, row Row) {
	t.Helper()
	if !reflect.DeepEqual(v.Row(), row) && !hasNaN(row) {
		t.Fatalf("View.Row() = %v, DecodeRow = %v", v.Row(), row)
	}
	for col, c := range v.Schema().Cols {
		if v.Null(col) != (row[col] == nil) {
			t.Fatalf("column %d: Null() = %v, DecodeRow %v", col, v.Null(col), row[col])
		}
		var got any
		switch c.Type {
		case TypeInt64:
			got = v.Int64(col)
		case TypeFloat64:
			got = math.Float64bits(v.Float64(col))
		case TypeString:
			got = v.String(col)
		case TypeBytes:
			got = string(v.Bytes(col))
		case TypeBool:
			got = v.Bool(col)
		}
		want := row[col]
		switch w := want.(type) {
		case nil: // a NULL reads as its type's zero value
			want = map[ColType]any{TypeInt64: int64(0), TypeFloat64: uint64(0), TypeString: "", TypeBytes: "", TypeBool: false}[c.Type]
		case float64:
			want = math.Float64bits(w)
		case []byte:
			want = string(w)
		}
		if got != want {
			t.Fatalf("column %d: accessor reads %v, DecodeRow %v", col, got, row[col])
		}
	}
}

func hasNaN(row Row) bool {
	for _, x := range row {
		if f, ok := x.(float64); ok && f != f {
			return true
		}
	}
	return false
}

// checkEdit sets a few columns of v, derived from its bytes, and requires
// the edit's encoding to equal EncodeRow of row with the same columns set —
// including one set with the wrong type, which both must refuse.
func checkEdit(t *testing.T, v View, row Row, data []byte) {
	t.Helper()
	seed := byte(len(data))
	if len(data) > 0 {
		seed ^= data[len(data)-1]
	}
	e := v.Edit()
	want := append(Row(nil), row...)
	for n := 0; n < 1+int(seed%4); n++ {
		col := int(seed+byte(n)*3) % len(want)
		k := seed>>2 + byte(n)
		if k%5 == 0 {
			e.SetNull(col)
			want[col] = nil
			continue
		}
		x := int64(seed)*int64(n+1) - 100
		switch v.Schema().Cols[col].Type {
		case TypeInt64:
			e.SetInt64(col, x<<uint(k%60))
			want[col] = x << uint(k%60)
		case TypeFloat64:
			e.SetFloat64(col, float64(x)/7)
			want[col] = float64(x) / 7
		case TypeString:
			e.SetString(col, strings.Repeat("s", int(k%9)))
			want[col] = strings.Repeat("s", int(k%9))
		case TypeBytes:
			e.SetBytes(col, data[:int(k)%(len(data)+1)])
			want[col] = data[:int(k)%(len(data)+1)]
		case TypeBool:
			e.SetBool(col, k%2 == 0)
			want[col] = k%2 == 0
		}
	}
	prefix := []byte("prefix")
	got, err := e.Append(prefix)
	enc, werr := v.Schema().AppendRow(prefix, want)
	if err != nil || werr != nil {
		t.Fatalf("edit to %v: Append fails with %v, AppendRow with %v", want, err, werr)
	}
	if !bytes.Equal(got, enc) {
		t.Fatalf("edit of % x to %v encodes % x, EncodeRow % x", data, want, got, enc)
	}
	// A value of the wrong type fails the edit, as it fails EncodeRow.
	col := int(seed) % len(want)
	if v.Schema().Cols[col].Type == TypeInt64 {
		e.SetString(col, "x")
		want[col] = "x"
	} else {
		e.SetInt64(col, 1)
		want[col] = int64(1)
	}
	_, err = e.Append(nil)
	_, werr = v.Schema().EncodeRow(want)
	if err == nil || werr == nil {
		t.Fatalf("wrong-typed set of column %d: Append fails with %v, EncodeRow with %v", col, err, werr)
	}
}

// FuzzEncodeRowRoundTrip builds rows from fuzzed primitive values and checks
// encode → decode is the identity.
func FuzzEncodeRowRoundTrip(f *testing.F) {
	f.Add(int64(7), 2.5, "bob", []byte{9, 9}, true, uint8(0))
	f.Add(int64(-1), -0.0, "", []byte{}, false, uint8(31))
	f.Add(int64(1<<62), 1e300, "日本語", []byte{0, 0xff}, true, uint8(5))

	f.Fuzz(func(t *testing.T, iv int64, fv float64, sv string, bv []byte, ok bool, nulls uint8) {
		s := fuzzSchema()
		row := Row{iv, fv, sv, bv, ok}
		// nulls is a bitmask selecting columns to NULL out.
		for i := range row {
			if nulls&(1<<i) != 0 {
				row[i] = nil
			}
		}
		enc, err := s.EncodeRow(row)
		if err != nil {
			t.Fatalf("encode %v: %v", row, err)
		}
		dec, err := s.DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode of just-encoded row: %v", err)
		}
		if len(dec) != len(row) {
			t.Fatalf("arity changed: %d -> %d", len(row), len(dec))
		}
		for i := range row {
			switch want := row[i].(type) {
			case nil:
				if dec[i] != nil {
					t.Fatalf("col %d: nil -> %v", i, dec[i])
				}
			case []byte:
				got, ok := dec[i].([]byte)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("col %d: % x -> %v", i, want, dec[i])
				}
			case float64:
				got, ok := dec[i].(float64)
				// NaN != NaN; compare bit patterns via re-encode instead.
				if !ok || (got != want && !(got != got && want != want)) {
					t.Fatalf("col %d: %v -> %v", i, want, dec[i])
				}
			default:
				if dec[i] != row[i] {
					t.Fatalf("col %d: %v -> %v", i, row[i], dec[i])
				}
			}
		}
	})
}
