package device

import (
	"bytes"
	"testing"

	"sias/internal/simclock"
)

func TestMemRoundtrip(t *testing.T) {
	m := NewMem(4096, 16)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	at, err := m.WritePage(0, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := m.ReadPage(at, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Error("roundtrip mismatch")
	}
}

// TestMemZeroPagesTakeNoMemory: writing zeros over a page never written
// stores nothing, yet counts as a write; zeros over a written page replace
// its bytes.
func TestMemZeroPagesTakeNoMemory(t *testing.T) {
	m := NewMem(4096, 16)
	zero, got := make([]byte, 4096), make([]byte, 4096)
	if _, err := m.WritePage(0, 3, zero); err != nil {
		t.Fatal(err)
	}
	if len(m.data) != 0 || m.Stats().Writes != 1 {
		t.Errorf("a zero page written: %d pages stored, %d writes counted, want 0 and 1", len(m.data), m.Stats().Writes)
	}
	if _, err := m.WritePage(0, 3, bytes.Repeat([]byte{9}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WritePage(0, 3, zero); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadPage(0, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zero) {
		t.Error("zeros written over a page do not read back")
	}
}

func TestMemLatency(t *testing.T) {
	m := NewMemLatency(4096, 16, 5*simclock.Microsecond, 50*simclock.Microsecond)
	buf := make([]byte, 4096)
	done, _ := m.ReadPage(100, 0, buf)
	if done != simclock.Time(100).Add(5*simclock.Microsecond) {
		t.Errorf("read done = %v", done)
	}
	done, _ = m.WritePage(100, 0, buf)
	if done != simclock.Time(100).Add(50*simclock.Microsecond) {
		t.Errorf("write done = %v", done)
	}
}

func TestMemBounds(t *testing.T) {
	m := NewMem(4096, 4)
	buf := make([]byte, 4096)
	if _, err := m.ReadPage(0, 4, buf); err != ErrOutOfRange {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := m.WritePage(0, -1, buf); err != ErrOutOfRange {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := m.ReadPage(0, 0, buf[:10]); err == nil {
		t.Error("short buffer should fail")
	}
}

func TestRAID0Striping(t *testing.T) {
	m0 := NewMem(4096, 8)
	m1 := NewMem(4096, 8)
	r := NewRAID0(m0, m1)
	if r.NumPages() != 16 {
		t.Fatalf("NumPages = %d, want 16", r.NumPages())
	}
	buf := make([]byte, 4096)
	for p := int64(0); p < 16; p++ {
		buf[0] = byte(p)
		if _, err := r.WritePage(0, p, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Even pages land on member 0, odd on member 1.
	if got := m0.Stats().Writes; got != 8 {
		t.Errorf("member 0 writes = %d, want 8", got)
	}
	if got := m1.Stats().Writes; got != 8 {
		t.Errorf("member 1 writes = %d, want 8", got)
	}
	for p := int64(0); p < 16; p++ {
		if _, err := r.ReadPage(0, p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(p) {
			t.Errorf("page %d content = %d", p, buf[0])
		}
	}
}

func TestRAID0AggregatesStats(t *testing.T) {
	m0 := NewMem(4096, 8)
	m1 := NewMem(4096, 8)
	r := NewRAID0(m0, m1)
	buf := make([]byte, 4096)
	r.WritePage(0, 0, buf)
	r.WritePage(0, 1, buf)
	r.ReadPage(0, 2, buf)
	st := r.Stats()
	if st.Writes != 2 || st.Reads != 1 {
		t.Errorf("aggregate stats = %+v", st)
	}
	r.ResetStats()
	if r.Stats().Writes != 0 {
		t.Error("ResetStats did not propagate")
	}
}

func TestRAID0Bounds(t *testing.T) {
	r := NewRAID0(NewMem(4096, 4))
	buf := make([]byte, 4096)
	if _, err := r.ReadPage(0, 4, buf); err != ErrOutOfRange {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
}

func TestStatsWriteAmplification(t *testing.T) {
	s := Stats{Writes: 10, PhysWrites: 25}
	if wa := s.WriteAmplification(); wa != 2.5 {
		t.Errorf("WA = %v, want 2.5", wa)
	}
	if (Stats{}).WriteAmplification() != 0 {
		t.Error("WA of empty stats should be 0")
	}
}

func TestStatsMB(t *testing.T) {
	s := Stats{BytesWritten: 2 << 20, BytesRead: 1 << 20}
	if s.WrittenMB() != 2 || s.ReadMB() != 1 {
		t.Errorf("MB conversions wrong: %v %v", s.WrittenMB(), s.ReadMB())
	}
}
