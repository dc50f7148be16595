package tuple

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"sias/internal/page"
	"sias/internal/txn"
)

func TestSIASHeaderRoundtrip(t *testing.T) {
	f := func(create uint64, vid uint64, block uint32, slot uint16, flags uint8, payload []byte) bool {
		hdr := SIASHeader{
			Create: txn.ID(create),
			VID:    vid,
			Pred:   page.TID{Block: block, Slot: slot},
			Flags:  flags,
		}
		enc := make([]byte, SIASHeaderSize+len(payload))
		PutSIAS(enc, hdr, payload)
		got, pl, err := DecodeSIAS(enc)
		return err == nil && got == hdr && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSIHeaderRoundtrip(t *testing.T) {
	f := func(xmin, xmax uint64, block uint32, slot uint16, flags uint8, payload []byte) bool {
		hdr := SIHeader{
			Xmin:  txn.ID(xmin),
			Xmax:  txn.ID(xmax),
			CTID:  page.TID{Block: block, Slot: slot},
			Flags: flags,
		}
		got, pl, err := DecodeSI(encodeSI(hdr, payload))
		return err == nil && got == hdr && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// encodeSI returns hdr and payload encoded into a fresh buffer.
func encodeSI(hdr SIHeader, payload []byte) []byte {
	b := make([]byte, SIHeaderSize+len(payload))
	PutSI(b, hdr, payload)
	return b
}

func TestSetSIXmaxInPlace(t *testing.T) {
	hdr := SIHeader{Xmin: 10, CTID: page.InvalidTID}
	enc := encodeSI(hdr, []byte("row"))
	if err := SetSIXmax(enc, 42); err != nil {
		t.Fatal(err)
	}
	got, payload, err := DecodeSI(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Xmax != 42 {
		t.Errorf("Xmax = %d, want 42", got.Xmax)
	}
	if got.Xmin != 10 {
		t.Errorf("Xmin changed: %d", got.Xmin)
	}
	if string(payload) != "row" {
		t.Errorf("payload changed: %q", payload)
	}
}

func TestSetSICTIDInPlace(t *testing.T) {
	enc := encodeSI(SIHeader{Xmin: 1, CTID: page.InvalidTID}, nil)
	want := page.TID{Block: 9, Slot: 3}
	if err := SetSICTID(enc, want); err != nil {
		t.Fatal(err)
	}
	got, _, _ := DecodeSI(enc)
	if got.CTID != want {
		t.Errorf("CTID = %v, want %v", got.CTID, want)
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, _, err := DecodeSIAS(make([]byte, SIASHeaderSize-1)); err == nil {
		t.Error("DecodeSIAS should reject short input")
	}
	if _, _, err := DecodeSI(make([]byte, SIHeaderSize-1)); err == nil {
		t.Error("DecodeSI should reject short input")
	}
	if err := SetSIXmax(make([]byte, 4), 1); err == nil {
		t.Error("SetSIXmax should reject short input")
	}
}

func TestTombstoneFlag(t *testing.T) {
	h := SIASHeader{Flags: FlagTombstone}
	if !h.Tombstone() {
		t.Error("tombstone flag not detected")
	}
	if (SIASHeader{}).Tombstone() {
		t.Error("zero header should not be a tombstone")
	}
}

func TestRowRoundtrip(t *testing.T) {
	s := NewSchema(
		Column{"id", TypeInt64},
		Column{"name", TypeString},
		Column{"balance", TypeFloat64},
		Column{"data", TypeBytes},
		Column{"active", TypeBool},
	)
	rows := []Row{
		{int64(1), "alice", 3.14, []byte{1, 2, 3}, true},
		{int64(-99), "", 0.0, []byte{}, false},
		{int64(1 << 40), "üñïçødé", -2.5e300, nil, true},
		{nil, nil, nil, nil, nil},
	}
	for i, r := range rows {
		enc, err := s.EncodeRow(r)
		if err != nil {
			t.Fatalf("row %d encode: %v", i, err)
		}
		got, err := s.DecodeRow(enc)
		if err != nil {
			t.Fatalf("row %d decode: %v", i, err)
		}
		for c := range s.Cols {
			switch want := r[c].(type) {
			case []byte:
				gb, ok := got[c].([]byte)
				if !ok || !bytes.Equal(gb, want) {
					t.Errorf("row %d col %d = %v, want %v", i, c, got[c], want)
				}
			default:
				if got[c] != r[c] {
					t.Errorf("row %d col %d = %v, want %v", i, c, got[c], r[c])
				}
			}
		}
	}
}

func TestRowTypeMismatch(t *testing.T) {
	s := NewSchema(Column{"id", TypeInt64})
	if _, err := s.EncodeRow(Row{"not an int"}); err == nil {
		t.Error("EncodeRow should reject wrong dynamic type")
	}
	if _, err := s.EncodeRow(Row{int64(1), int64(2)}); err == nil {
		t.Error("EncodeRow should reject arity mismatch")
	}
}

func TestRowRoundtripProperty(t *testing.T) {
	s := NewSchema(
		Column{"a", TypeInt64},
		Column{"b", TypeString},
		Column{"c", TypeFloat64},
	)
	f := func(a int64, b string, c float64) bool {
		enc, err := s.EncodeRow(Row{a, b, c})
		if err != nil {
			return false
		}
		got, err := s.DecodeRow(enc)
		if err != nil {
			return false
		}
		return got[0] == a && got[1] == b && (got[2] == c || c != c /* NaN */)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeRowAliasesBytes pins DecodeRow's ownership contract: a bytes
// column is the input's own bytes, not a copy, and is capped at its length so
// appending to it reallocates instead of overwriting the next column.
func TestDecodeRowAliasesBytes(t *testing.T) {
	s := NewSchema(Column{"a", TypeBytes}, Column{"b", TypeBytes})
	enc, err := s.EncodeRow(Row{[]byte("first"), []byte("second")})
	if err != nil {
		t.Fatal(err)
	}
	row, err := s.DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	a := row[0].([]byte)
	if &a[0] != &enc[2] || cap(a) != len(a) {
		t.Fatalf("column a does not alias its input capped at its length (cap %d, len %d)", cap(a), len(a))
	}
	_ = append(a, "XXXX"...)
	if got := string(row[1].([]byte)); got != "second" {
		t.Fatalf("appending to column a rewrote column b: %q", got)
	}
	enc[2] = 'F'
	if string(a) != "First" {
		t.Fatalf("column a = %q after its input changed: not an alias", a)
	}
}

func TestDecodeRowTrailingGarbage(t *testing.T) {
	s := NewSchema(Column{"a", TypeInt64})
	enc, _ := s.EncodeRow(Row{int64(5)})
	enc = append(enc, 0xFF)
	if _, err := s.DecodeRow(enc); err == nil {
		t.Error("DecodeRow should reject trailing bytes")
	}
}

// TestViewReadsAndEditsWithoutAllocating pins the view path's cost: checking
// a row, reading its columns and re-encoding an edit of it into a buffer
// with room allocate nothing. Only String, which returns a new string, may.
func TestViewReadsAndEditsWithoutAllocating(t *testing.T) {
	s := NewSchema(
		Column{"id", TypeInt64}, Column{"qty", TypeInt64}, Column{"price", TypeFloat64},
		Column{"name", TypeString}, Column{"blob", TypeBytes}, Column{"ok", TypeBool},
	)
	enc, err := s.EncodeRow(Row{int64(1 << 40), int64(300), 2.5, "widget", []byte{1, 2, 3}, true})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 2*len(enc))
	var out []byte
	allocs := testing.AllocsPerRun(100, func() {
		v, err := s.View(enc)
		if err != nil || v.Int64(0) != 1<<40 || v.Float64(2) != 2.5 || string(v.Bytes(3)) != "widget" || !v.Bool(5) {
			t.Fatalf("view reads %v, %v", v.Row(), err)
		}
		e := v.Edit()
		e.SetInt64(1, v.Int64(1)-7)
		e.SetFloat64(2, v.Float64(2)*2)
		e.SetBytes(4, v.Bytes(4)[:1])
		if out, err = e.Append(dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("view, read and edit cost %.1f allocations, want 0", allocs)
	}
	want, _ := s.EncodeRow(Row{int64(1 << 40), int64(293), 5.0, "widget", []byte{1}, true})
	if !bytes.Equal(out, want) {
		t.Fatalf("edit encodes % x, want % x", out, want)
	}
}

// TestEditSetsMoreColumnsThanInline sets every column of a wide row — past
// the sets an Edit holds inline — and each twice, the last value winning.
func TestEditSetsMoreColumnsThanInline(t *testing.T) {
	var cols []Column
	var row Row
	for i := 0; i < 2*inlineSets; i++ {
		cols = append(cols, Column{fmt.Sprintf("c%d", i), TypeInt64})
		row = append(row, int64(i))
	}
	s := NewSchema(cols...)
	enc, err := s.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.View(enc)
	if err != nil {
		t.Fatal(err)
	}
	e := v.Edit()
	for i := range cols {
		e.SetNull(i)
		e.SetInt64(i, int64(1000*i))
		row[i] = int64(1000 * i)
	}
	e.SetNull(3)
	row[3] = nil
	got, err := e.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := s.EncodeRow(row); !bytes.Equal(got, want) {
		t.Fatalf("edit encodes % x, want % x", got, want)
	}
	e.SetInt64(len(cols), 1)
	if _, err := e.Append(nil); err == nil {
		t.Fatal("an edit of a column past the row's end must fail")
	}
}

// TestViewTypedAccessorPanicsOnWrongType: reading a column as another type
// is a programming error, as a failed type assertion on a decoded row is.
func TestViewTypedAccessorPanicsOnWrongType(t *testing.T) {
	s := NewSchema(Column{"id", TypeInt64}, Column{"name", TypeString})
	enc, _ := s.EncodeRow(Row{int64(1), "a"})
	v, _ := s.View(enc)
	if got := string(v.Bytes(1)); got != "a" {
		t.Fatalf("Bytes of a string column = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Float64 of an int64 column did not panic")
		}
	}()
	v.Float64(0)
}

// TestViewReadsPastRecordedOffsets reads every column of a schema wider
// than the offsets a view records, and of a row whose later columns start
// past 64 KiB, where the view walks on from the last recorded column.
func TestViewReadsPastRecordedOffsets(t *testing.T) {
	var cols []Column
	var row Row
	for i := 0; i < viewOffsets+5; i++ {
		if i%3 == 1 {
			cols = append(cols, Column{fmt.Sprintf("s%d", i), TypeString})
			row = append(row, fmt.Sprintf("v%d", i))
			continue
		}
		cols = append(cols, Column{fmt.Sprintf("i%d", i), TypeInt64})
		row = append(row, int64(i*1000))
	}
	wide := NewSchema(cols...)
	long := NewSchema(Column{"big", TypeBytes}, Column{"n", TypeInt64}, Column{"s", TypeString})
	for _, c := range []struct {
		s   *Schema
		row Row
	}{{wide, row}, {long, Row{make([]byte, 70000), int64(-7), "tail"}}} {
		enc, err := c.s.EncodeRow(c.row)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.s.View(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i, col := range c.s.Cols {
			var got any
			switch col.Type {
			case TypeInt64:
				got = v.Int64(i)
			case TypeString:
				got = v.String(i)
			case TypeBytes:
				got = len(v.Bytes(i))
				c.row[i] = len(c.row[i].([]byte))
			}
			if got != c.row[i] {
				t.Fatalf("%d columns, column %d reads %v, want %v", len(c.s.Cols), i, got, c.row[i])
			}
		}
	}
}
