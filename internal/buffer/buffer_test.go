package buffer

import (
	"runtime"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
)

func newPool(frames int) (*Pool, *device.Mem) {
	dev := device.NewMemLatency(page.Size, 4096, 25*simclock.Microsecond, 200*simclock.Microsecond)
	p := New(Config{Frames: frames, HitCost: simclock.Microsecond}, dev)
	return p, dev
}

func TestGetMissThenHit(t *testing.T) {
	p, dev := newPool(8)
	f, t1, err := p.Get(0, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Init(1, 0)
	f.Data.Insert([]byte("x"))
	p.Release(f, true)

	f2, t2, err := p.Get(t1, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Error("hit should return the same frame")
	}
	if f2.Data.NumSlots() != 1 {
		t.Error("frame content lost")
	}
	p.Release(f2, false)
	if t2.Sub(t1) != simclock.Microsecond {
		t.Errorf("hit cost = %v, want 1µs", t2.Sub(t1))
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if dev.Stats().Reads != 0 {
		t.Error("init get must not read the device")
	}
}

func TestMissReadsDevice(t *testing.T) {
	p, dev := newPool(8)
	// Write directly to the device, then Get must read it.
	pg := page.New(3, 0)
	pg.Insert([]byte("persisted"))
	dev.WritePage(0, 7, pg)

	f, _, err := p.Get(0, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Data.Tuple(0)
	if err != nil || string(got) != "persisted" {
		t.Errorf("tuple = %q, %v", got, err)
	}
	p.Release(f, false)
	if dev.Stats().Reads != 1 {
		t.Error("miss should read device once")
	}
}

func TestEvictionWritesDirty(t *testing.T) {
	p, dev := newPool(2)
	at := simclock.Time(0)
	// Dirty page 0.
	f, at, _ := p.Get(at, 0, true)
	f.Data.Init(1, 0)
	f.Data.Insert([]byte("dirty"))
	p.Release(f, true)
	// Fill remaining frame and force eviction.
	for i := int64(1); i <= 2; i++ {
		f, at2, err := p.Get(at, i, true)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Init(1, 0)
		p.Release(f, false)
		at = at2
	}
	if dev.Stats().Writes == 0 {
		t.Error("evicting a dirty page must write it")
	}
	// The page must be readable back with content.
	f2, _, err := p.Get(at, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.Data.Tuple(0)
	if err != nil || string(got) != "dirty" {
		t.Errorf("after eviction roundtrip: %q, %v", got, err)
	}
	p.Release(f2, false)
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _ := newPool(2)
	f0, _, _ := p.Get(0, 0, true)
	f1, _, _ := p.Get(0, 1, true)
	// Both frames pinned: a third Get must fail.
	if _, _, err := p.Get(0, 2, true); err == nil {
		t.Error("Get with all frames pinned should fail")
	}
	p.Release(f0, false)
	p.Release(f1, false)
	if _, _, err := p.Get(0, 2, true); err != nil {
		t.Errorf("Get after release: %v", err)
	}
}

func TestFlushAllWritesEveryDirtyPage(t *testing.T) {
	p, dev := newPool(8)
	for i := int64(0); i < 4; i++ {
		f, _, _ := p.Get(0, i, true)
		f.Data.Init(1, 0)
		p.Release(f, i%2 == 0) // dirty only even pages
	}
	if _, err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Writes; got != 2 {
		t.Errorf("FlushAll wrote %d pages, want 2", got)
	}
	// Second checkpoint: nothing dirty.
	if _, err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Writes; got != 2 {
		t.Errorf("idempotent checkpoint wrote %d pages, want 2", got)
	}
}

func TestSweepDirtyLimit(t *testing.T) {
	p, dev := newPool(8)
	for i := int64(0); i < 5; i++ {
		f, _, _ := p.Get(0, i, true)
		f.Data.Init(1, 0)
		p.Release(f, true)
	}
	n, _, err := p.SweepDirty(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || dev.Stats().Writes != 3 {
		t.Errorf("sweep wrote %d/%d, want 3", n, dev.Stats().Writes)
	}
	n, _, _ = p.SweepDirty(0, 0) // 0 = all remaining
	if n != 2 {
		t.Errorf("second sweep wrote %d, want 2", n)
	}
}

func TestWALFlushBeforeDirtyWrite(t *testing.T) {
	dev := device.NewMem(page.Size, 64)
	var flushedLSN uint64
	p := New(Config{
		Frames:  2,
		HitCost: simclock.Microsecond,
		WALFlush: func(at simclock.Time, lsn uint64) (simclock.Time, error) {
			if lsn > flushedLSN {
				flushedLSN = lsn
			}
			return at, nil
		},
	}, dev)
	f, _, _ := p.Get(0, 0, true)
	f.Data.Init(1, 0)
	f.Data.SetLSN(777)
	p.Release(f, true)
	p.FlushAll(0)
	if flushedLSN != 777 {
		t.Errorf("WAL flushed to %d, want 777 (WAL-before-data)", flushedLSN)
	}
}

func TestInvalidateAllDropsWithoutWriting(t *testing.T) {
	p, dev := newPool(4)
	f, _, _ := p.Get(0, 0, true)
	f.Data.Init(1, 0)
	f.Data.Insert([]byte("doomed"))
	p.Release(f, true)
	p.InvalidateAll()
	if dev.Stats().Writes != 0 {
		t.Error("crash simulation must not write")
	}
	// Re-reading gets the (zero) device content.
	f2, _, err := p.Get(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Data.Initialized() {
		t.Error("page content should be gone after crash")
	}
	p.Release(f2, false)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// touchPages creates pages 0, 7, 14, ... (n of them) in p and releases each
// clean, failing t on the first error.
func touchPages(t *testing.T, p *Pool, n int) {
	t.Helper()
	for i := int64(0); i < int64(n); i++ {
		f, _, err := p.Get(0, i*7, true)
		if err != nil {
			t.Fatal(err)
		}
		if cap(f.Data) != page.Size {
			t.Fatalf("frame page has cap %d, want %d", cap(f.Data), page.Size)
		}
		p.Release(f, false)
	}
}

// TestPoolHeapFollowsTouchedPages pins that a frame's page is given out when
// the frame is first used: a large pool costs its headers, and reusing
// frames after InvalidateAll adds nothing. Where pages live in the mapped
// arena, touched pages add (almost) nothing to the Go heap; in race and
// non-unix builds each adds one heap page.
func TestPoolHeapFollowsTouchedPages(t *testing.T) {
	const frames, touched = 16384, 256
	const headers = 8 << 20
	dev := device.NewMem(page.Size, 1<<16)
	before := liveHeap()
	p := New(Config{Frames: frames}, dev)
	afterNew := liveHeap() - before
	if afterNew >= headers {
		t.Fatalf("New(%d frames) grew the heap by %.1f MB, want < %d MB", frames, float64(afterNew)/(1<<20), headers>>20)
	}
	touchPages(t, p, touched)
	afterTouch := liveHeap() - before
	if pagesOffHeap {
		if grew := afterTouch - afterNew; grew >= 64<<10 {
			t.Fatalf("%d touched arena pages grew the heap by %d bytes, want < 64 KB", touched, grew)
		}
	} else if limit := int64(headers + touched*page.Size); afterTouch >= limit {
		t.Fatalf("%d touched pages grew the heap by %.1f MB, want < %.1f MB", touched, float64(afterTouch)/(1<<20), float64(limit)/(1<<20))
	}
	p.InvalidateAll()
	touchPages(t, p, touched)
	// The frames keep their pages: a second round over as many pages may
	// not allocate any of them again.
	again := liveHeap() - before - afterTouch
	if again >= 16*page.Size {
		t.Errorf("the same %d pages after InvalidateAll grew the heap by %d more bytes", touched, again)
	}
	t.Logf("heap (pages off heap: %v): %.1f MB after New, %.1f MB after %d touched pages, %+d bytes after the second round",
		pagesOffHeap, float64(afterNew)/(1<<20), float64(afterTouch)/(1<<20), touched, again)
	runtime.KeepAlive(p)
}

// TestResidentBytesCountsOwnedPages pins Stats.ResidentBytes: one page per
// frame that has been used, however often it is reused.
func TestResidentBytesCountsOwnedPages(t *testing.T) {
	const frames, touched = 1024, 300
	p := New(Config{Frames: frames}, device.NewMem(page.Size, 1<<14))
	if got := p.Stats().ResidentBytes; got != 0 {
		t.Fatalf("fresh pool: ResidentBytes = %d, want 0", got)
	}
	touchPages(t, p, touched)
	if got, want := p.Stats().ResidentBytes, int64(touched*page.Size); got != want {
		t.Fatalf("after %d touched pages: ResidentBytes = %d, want %d", touched, got, want)
	}
	p.InvalidateAll()
	touchPages(t, p, touched)
	if got, want := p.Stats().ResidentBytes, int64(touched*page.Size); got != want {
		t.Fatalf("second round after InvalidateAll: ResidentBytes = %d, want %d", got, want)
	}
	touchPages(t, p, 2*frames) // evicts: the pool never owns more than its frames
	if got, want := p.Stats().ResidentBytes, int64(frames*page.Size); got != want {
		t.Fatalf("after touching twice the pool: ResidentBytes = %d, want %d", got, want)
	}
}

func TestChecksumSetOnFlush(t *testing.T) {
	p, dev := newPool(4)
	f, _, _ := p.Get(0, 9, true)
	f.Data.Init(1, 0)
	f.Data.Insert([]byte("sum"))
	p.Release(f, true)
	p.FlushAll(0)
	raw := make([]byte, page.Size)
	dev.ReadPage(0, 9, raw)
	if err := page.Page(raw).VerifyChecksum(); err != nil {
		t.Errorf("flushed page checksum invalid: %v", err)
	}
}
