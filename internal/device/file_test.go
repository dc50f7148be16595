package device

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFile(path, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]byte, 512)
	for i := range w {
		w[i] = byte(i % 251)
	}
	if _, err := d.WritePage(0, 7, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 512)
	if _, err := d.ReadPage(0, 7, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("read back different bytes")
	}
	// Unwritten pages read as zeros (sparse file tail).
	if _, err := d.ReadPage(0, 15, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, make([]byte, 512)) {
		t.Fatal("unwritten page not zero")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: data persists across device instances.
	d2, err := OpenFile(path, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.ReadPage(0, 7, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("data lost across reopen")
	}
	if _, err := d2.ReadPage(0, 16, r); err != ErrOutOfRange {
		t.Fatalf("out-of-range read: got %v", err)
	}
}

// TestFileWriteRange: a range write is one host write of exactly its bytes,
// leaves its surroundings alone, and under SetSyncOnWrite costs one sync
// whatever it spans.
func TestFileWriteRange(t *testing.T) {
	const ps = 1024
	d, err := OpenFile(filepath.Join(t.TempDir(), "dev.img"), ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WritePage(0, 1, bytes.Repeat([]byte{1}, ps)); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	d.SetSyncOnWrite(true)

	p := bytes.Repeat([]byte{2}, 2*ps) // second half of page 1 up to the first half of page 3
	if _, err := d.WriteRange(0, ps+ps/2, p); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Writes != 1 || st.BytesWritten != int64(len(p)) || st.Syncs != 1 {
		t.Errorf("stats %d writes / %d bytes / %d syncs, want 1 / %d / 1", st.Writes, st.BytesWritten, st.Syncs, len(p))
	}
	want := append(bytes.Repeat([]byte{1}, ps/2), p...)
	want = append(want, make([]byte, ps/2)...)
	got := make([]byte, 3*ps)
	if _, err := d.ReadPages(0, 1, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("pages 1-3 do not hold the old half page, the range, then zeros")
	}

	for _, off := range []int64{-1, 8*ps - int64(len(p)) + 1} {
		if _, err := d.WriteRange(0, off, p); err != ErrOutOfRange {
			t.Errorf("WriteRange at %d: got %v, want ErrOutOfRange", off, err)
		}
	}
	if _, err := d.WriteRange(0, 8*ps-int64(len(p)), p); err != nil {
		t.Errorf("WriteRange ending at the device end: %v", err)
	}
}
