package tuple

import (
	"testing"

	"sias/internal/page"
)

func BenchmarkPutSIAS(b *testing.B) {
	payload := make([]byte, 120)
	hdr := SIASHeader{Create: 42, VID: 7, Pred: page.TID{Block: 3, Slot: 1}}
	dst := make([]byte, SIASHeaderSize+len(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutSIAS(dst, hdr, payload)
	}
}

func BenchmarkDecodeSIAS(b *testing.B) {
	enc := make([]byte, SIASHeaderSize+120)
	PutSIAS(enc, SIASHeader{Create: 42, VID: 7}, make([]byte, 120))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSIAS(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowEncode(b *testing.B) {
	s := NewSchema(
		Column{"id", TypeInt64},
		Column{"name", TypeString},
		Column{"balance", TypeFloat64},
		Column{"pad", TypeString},
	)
	row := Row{int64(123456), "customer name", 99.5, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncodeRow(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowDecode(b *testing.B) {
	s := NewSchema(
		Column{"id", TypeInt64},
		Column{"name", TypeString},
		Column{"balance", TypeFloat64},
		Column{"pad", TypeString},
	)
	enc, _ := s.EncodeRow(Row{int64(123456), "customer name", 99.5, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewRead is BenchmarkRowDecode's row read the view way: check it
// and read the two columns a caller uses.
func BenchmarkViewRead(b *testing.B) {
	s := NewSchema(
		Column{"id", TypeInt64},
		Column{"name", TypeString},
		Column{"balance", TypeFloat64},
		Column{"pad", TypeString},
	)
	enc, _ := s.EncodeRow(Row{int64(123456), "customer name", 99.5, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := s.View(enc)
		if err != nil || v.Int64(0) != 123456 || v.Float64(2) != 99.5 {
			b.Fatal(v, err)
		}
	}
}
