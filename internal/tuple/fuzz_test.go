package tuple

import (
	"bytes"
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
// is canonical — one encoding per row). The key-only reader must agree with
// it on every column: the same value, or both fail.
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
		for col := range s.Cols {
			k, kerr := s.Int64Col(data, col)
			if (kerr != nil) != (err != nil) {
				t.Fatalf("row % x, column %d: Int64Col fails with %v, DecodeRow with %v", data, col, kerr, err)
			}
			if err != nil {
				continue
			}
			if want, _ := row[col].(int64); k != want {
				t.Fatalf("row % x, column %d: Int64Col reads %d, DecodeRow %v", data, col, k, row[col])
			}
		}
		if err != nil {
			return
		}
		out, err := s.EncodeRow(row)
		if err != nil {
			t.Fatalf("decoded row %v does not re-encode: %v", row, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("row % x decodes to %v which re-encodes to % x", data, row, out)
		}
	})
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
