package device

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestWrapCarriesRangeWritePath: a Wrap has the byte-range write path exactly
// when what it decorates has it, and applies its hook and delay once per
// range, however many pages the range spans.
func TestWrapCarriesRangeWritePath(t *testing.T) {
	const ps = 1024
	t.Run("over File", func(t *testing.T) {
		f, err := OpenFile(filepath.Join(t.TempDir(), "dev.img"), ps, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := NewWrap(NewWrap(f)) // decorators nest
		rw, ok := RangeWriterOf(w)
		if !ok {
			t.Fatal("Wrap over File advertises no range write path")
		}
		var hooked []int64
		w.SetWriteHook(func(pageNo int64) error {
			hooked = append(hooked, pageNo)
			return nil
		})
		w.WriteDelay = 20 * time.Millisecond

		p := bytes.Repeat([]byte{0xAB}, 2*ps+512) // pages 2, 3 and half of 4
		t0 := time.Now()
		if _, err := rw.WriteRange(0, 2*ps+512, p); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < w.WriteDelay {
			t.Errorf("range write took %v, less than the WriteDelay of %v", d, w.WriteDelay)
		}
		if len(hooked) != 1 || hooked[0] != 2 {
			t.Errorf("write hook saw pages %v, want one call with the first page, 2", hooked)
		}
		if st := w.Stats(); st.Writes != 1 || st.BytesWritten != int64(len(p)) {
			t.Errorf("stats %d writes / %d bytes, want 1 / %d", st.Writes, st.BytesWritten, len(p))
		}
		got := make([]byte, ps)
		if _, err := w.ReadPage(0, 2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:512], make([]byte, 512)) || !bytes.Equal(got[512:], p[:ps-512]) {
			t.Error("page 2 does not hold zeros then the head of the range")
		}

		// A failing hook fails the write before the inner device sees it.
		boom := errors.New("injected")
		w.SetWriteHook(func(int64) error { return boom })
		if _, err := rw.WriteRange(0, 0, p[:512]); !errors.Is(err, boom) {
			t.Errorf("WriteRange under a failing hook returned %v", err)
		}
		if st := w.Stats(); st.Writes != 1 {
			t.Errorf("a refused write reached the device: %d writes", st.Writes)
		}
	})

	t.Run("over Mem", func(t *testing.T) {
		w := NewWrap(NewMem(ps, 8))
		if _, ok := RangeWriterOf(w); ok {
			t.Fatal("Wrap over Mem advertises a range write path Mem does not have")
		}
		var hooked int
		w.SetWriteHook(func(int64) error { hooked++; return nil })
		if _, err := w.WritePage(0, 1, make([]byte, ps)); err != nil {
			t.Fatal(err)
		}
		if hooked != 1 || w.Stats().Writes != 1 {
			t.Errorf("page write: %d hook calls, %d writes, want 1 and 1", hooked, w.Stats().Writes)
		}
	})
}
