package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/txn"
)

func newFileDev(t testing.TB, pageSize int, pages int64) *device.File {
	t.Helper()
	dev, err := device.OpenFile(filepath.Join(t.TempDir(), "wal.img"), pageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev
}

// rangeRecorder is a Mem with a byte-range write path that checks every write
// the WAL hands it: sector-aligned at both ends, at most window pages long,
// and never below the sector that holds the LSN that was durable when the
// flush began (floor, set by the test before each flush and each reopen).
type rangeRecorder struct {
	*device.Mem
	t      testing.TB
	floor  int64
	writes int
}

func (r *rangeRecorder) WriteRange(at simclock.Time, off int64, p []byte) (simclock.Time, error) {
	r.writes++
	if off%sectorSize != 0 || len(p)%sectorSize != 0 || len(p) == 0 {
		r.t.Errorf("write [%d,%d) is not a whole number of sectors", off, off+int64(len(p)))
	}
	if len(p) > window*r.PageSize() {
		r.t.Errorf("write [%d,%d) is longer than the %d-page window", off, off+int64(len(p)), window)
	}
	if off < r.floor {
		r.t.Errorf("write [%d,%d) starts below %d, the sector of the durable LSN: acknowledged bytes written again",
			off, off+int64(len(p)), r.floor)
	}
	ps := int64(r.PageSize())
	buf := make([]byte, ps)
	for len(p) > 0 {
		pg, in := off/ps, off%ps
		if _, err := r.ReadPage(at, pg, buf); err != nil {
			return at, err
		}
		n := copy(buf[in:], p)
		if _, err := r.Mem.WritePage(at, pg, buf); err != nil {
			return at, err
		}
		off, p = off+int64(n), p[n:]
	}
	return at, nil
}

// WritePage fails the test: a writer that found the range path must not fall
// back to whole pages.
func (r *rangeRecorder) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	r.t.Errorf("whole-page write of page %d on a device with a range path", pageNo)
	return r.Mem.WritePage(at, pageNo, p)
}

const scriptPages = 24

// checkFlushImage interprets script as a sequence of writer operations —
// appends of many sizes, flushes, SkipTo, crash-and-resume, crash-and-new-
// generation, either of them behind a torn write's debris — and runs it in
// lockstep on a Mem (the whole-page path, the reference), a File (the range
// path) and the checking recorder (the range path again). After every
// operation that writes or reopens, the three device images must be equal
// byte for byte; at the end Scan must read the same records from each, and,
// unless a run of zeros ended mid-page (Scan skips from it to the next page
// boundary), exactly the records that were flushed and not lost to a crash.
func checkFlushImage(t testing.TB, pageSize int, script []byte) {
	t.Helper()
	rec := &rangeRecorder{Mem: device.NewMem(pageSize, scriptPages), t: t}
	devs := []device.BlockDevice{device.NewMem(pageSize, scriptPages), newFileDev(t, pageSize, scriptPages), rec}
	ws := make([]*Writer, len(devs))
	for i, dev := range devs {
		ws[i] = NewWriter(dev)
	}
	if ws[0].rw != nil || ws[1].rw == nil || ws[2].rw == nil {
		t.Fatal("the devices do not take the paths this test compares")
	}
	ps := LSN(pageSize)
	room := LSN(scriptPages-2) * ps // stop short of the device end: a full log has its own test

	var want []Record // appended, less what crashes lost
	flushed := 0      // of want, how many a flush has made durable
	exact := true     // no run of zeros has ended mid-page: Scan must read want
	flush := func() {
		rec.floor = int64(ws[2].Durable()) &^ (sectorSize - 1)
		flushed = len(want)
		for _, w := range ws {
			if _, err := w.Flush(0, w.NextLSN()); err != nil {
				t.Fatal(err)
			}
			if w.Durable() != w.NextLSN() {
				t.Fatalf("durable %d after a flush of everything up to %d", w.Durable(), w.NextLSN())
			}
		}
	}
	// reopen scans every device, which must agree on where the log ends, and
	// replaces each writer. With torn set, the crash first leaves debris over
	// the whole window past the end of the intact records.
	reopen := func(torn bool, open func(dev device.BlockDevice, end LSN) *Writer) {
		_, end := scanAll(t, devs[0])
		want = want[:flushed]
		// The new writer's first write, the window, starts in the sector of
		// its durable LSN: end, or the page boundary past it.
		rec.floor = int64(end) &^ (sectorSize - 1)
		for i, dev := range devs {
			if _, e := scanAll(t, dev); e != end {
				t.Fatalf("%T: the log ends at %d, on the page path at %d", dev, e, end)
			}
			if torn {
				raw := dev
				if dev == rec {
					raw = rec.Mem
				}
				leaveDebris(t, raw, end, 0)
			}
			ws[i] = open(dev, end)
		}
	}
	tx := 0
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step]%8, int(script[step+1])
		switch op {
		case 0, 1, 2, 3:
			size := arg * 3 // commits are a few hundred bytes
			if op == 3 {
				size = arg * 64 // up to 16 KB: crosses pages whatever the page size
			}
			if ws[0].NextLSN()+LSN(recHeaderSize+size) > room {
				continue
			}
			tx++
			r := &Record{Type: RecHeapInsert, Tx: txn.ID(tx), Rel: 2, Data: bytes.Repeat([]byte{byte(tx)}, size)}
			want = append(want, *r)
			for _, w := range ws {
				w.Append(r)
			}
			continue
		case 4:
			flush()
		case 5: // a follower mirrors a gap: to the next page boundary, or (odd arg) any length
			to, anyLength := (ws[0].NextLSN()+ps-1)/ps*ps, arg&1 == 1
			if anyLength {
				to = ws[0].NextLSN() + LSN(arg*40)
			}
			if to <= room {
				exact = exact && !anyLength
				for _, w := range ws {
					w.SkipTo(to)
				}
			}
			continue
		case 6: // the unflushed tail is lost; continue where the intact records end
			reopen(arg&1 == 1, func(dev device.BlockDevice, end LSN) *Writer {
				w, err := NewWriterResume(dev, end)
				if err != nil {
					t.Fatal(err)
				}
				return w
			})
		case 7: // the same, but begin a new generation on the next page
			reopen(arg&1 == 1, func(dev device.BlockDevice, end LSN) *Writer {
				return newWriterAt(t, dev, (end+ps-1)/ps*ps)
			})
		}
		for _, dev := range devs[1:] {
			sameImage(t, devs[0], dev, fmt.Sprintf("%T after step %d (op %d)", dev, step/2, op))
		}
	}
	flush()
	ref, refEnd := scanAll(t, devs[0])
	if exact {
		sameRecords(t, "the page path", ref, want)
	}
	for _, dev := range devs[1:] {
		sameImage(t, devs[0], dev, fmt.Sprintf("%T after the last flush", dev))
		got, gotEnd := scanAll(t, dev)
		if gotEnd != refEnd {
			t.Fatalf("%T: the log ends at %d, on the page path at %d", dev, gotEnd, refEnd)
		}
		sameRecords(t, fmt.Sprintf("%T", dev), got, ref)
	}
	if rec.writes == 0 && refEnd > 0 {
		t.Fatal("the recorder saw no range write")
	}
}

// sameRecords fails unless got, the records Scan read from what, are want.
func sameRecords(t testing.TB, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: Scan read %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Tx != want[i].Tx || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: record %d is tx %d with %d bytes, want tx %d with %d bytes",
				what, i, got[i].Tx, len(got[i].Data), want[i].Tx, len(want[i].Data))
		}
	}
}

// imageOf reads the whole device.
func imageOf(t testing.TB, dev device.BlockDevice) []byte {
	t.Helper()
	ps := dev.PageSize()
	img := make([]byte, int(dev.NumPages())*ps)
	for p := int64(0); p < dev.NumPages(); p++ {
		if _, err := dev.ReadPage(0, p, img[int(p)*ps:]); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// sameImage fails unless a and b hold the same bytes on every page.
func sameImage(t testing.TB, a, b device.BlockDevice, what string) {
	t.Helper()
	ia, ib := imageOf(t, a), imageOf(t, b)
	if !bytes.Equal(ia, ib) {
		i := 0
		for ia[i] == ib[i] {
			i++
		}
		t.Fatalf("%s: images differ from byte %d of page %d on", what, i%a.PageSize(), i/a.PageSize())
	}
}

// flushScriptPageSizes are the geometries the scripts run at: the real page,
// and two small ones that put a page boundary behind every few records.
var flushScriptPageSizes = []int{1024, 2048, page.Size}

// TestFlushImageMatchesPagePath: the range path leaves the device exactly as
// the whole-page path does — so either reads the other's log — and never
// writes below the sector of the durable LSN.
func TestFlushImageMatchesPagePath(t *testing.T) {
	// The kv-write commit, again and again: two after-images, a commit, flush.
	var commits []byte
	for i := 0; i < 40; i++ {
		commits = append(commits, 0, 96, 0, 96, 0, 0, 4, 0)
	}
	checkFlushImage(t, page.Size, commits)

	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 30; i++ {
		script := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(script)
		if i%2 == 0 { // every gap ends on a page boundary, so Scan must read the records exactly
			for j := 0; j+1 < len(script); j += 2 {
				if script[j]%8 == 5 {
					script[j+1] &^= 1
				}
			}
		}
		checkFlushImage(t, flushScriptPageSizes[i%len(flushScriptPageSizes)], script)
	}
}

// FuzzFlushImage is TestFlushImageMatchesPagePath with the script (and the
// page size, from its first byte) chosen by the fuzzer.
func FuzzFlushImage(f *testing.F) {
	f.Add([]byte{2, 0, 96, 0, 96, 0, 0, 4, 0, 0, 96, 4, 0})                   // two commits on one page
	f.Add([]byte{0, 3, 255, 4, 0, 0, 10, 4, 0, 6, 0, 1, 200, 4, 0})           // a 16 KB record, then resume
	f.Add([]byte{1, 0, 50, 4, 0, 7, 0, 0, 50, 4, 0, 5, 30, 2, 9, 4, 0})       // new generation, SkipTo
	f.Add([]byte{0, 0, 50, 5, 31, 0, 50, 4, 0, 7, 1, 0, 50, 4, 0})            // a gap ending mid-page, torn new generation
	f.Add([]byte{0, 0, 200, 6, 1, 0, 200, 4, 0, 0, 1, 7, 1, 3, 100, 6, 0, 4}) // crashes with an unflushed tail and debris
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1<<12 {
			return
		}
		checkFlushImage(t, flushScriptPageSizes[int(script[0])%len(flushScriptPageSizes)], script[1:])
	})
}

// TestFullLogRefusesWholeFlush: a flush that would run off the end of the log
// device fails with ErrLogFull before it writes anything, on both paths, and
// goes on failing; what was acknowledged before is what a reopen finds.
func TestFullLogRefusesWholeFlush(t *testing.T) {
	const pages = 4
	for _, tc := range []struct {
		name string
		dev  device.BlockDevice
	}{
		{"File", newFileDev(t, page.Size, pages)},
		{"Mem", device.NewMem(page.Size, pages)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWriter(tc.dev)
			commit := func(tx int) error {
				w.Append(&Record{Type: RecHeapInsert, Tx: txn.ID(tx), Rel: 2, Data: bytes.Repeat([]byte{byte(tx)}, 3000)})
				_, err := w.Flush(0, w.Append(&Record{Type: RecCommit, Tx: txn.ID(tx)}))
				return err
			}
			acked := 0
			var err error
			for err == nil {
				if err = commit(acked + 1); err == nil {
					acked++
				}
			}
			if acked != pages*page.Size/(3000+2*recHeaderSize) {
				t.Fatalf("%d commits fit the log, want %d", acked, pages*page.Size/(3000+2*recHeaderSize))
			}
			if !errors.Is(err, ErrLogFull) || !errors.Is(err, device.ErrOutOfRange) {
				t.Fatalf("the commit that does not fit failed with %v, want ErrLogFull wrapping device.ErrOutOfRange", err)
			}
			durable, writes := w.Durable(), tc.dev.Stats().Writes
			image := imageOf(t, tc.dev)

			// The failed commit starts in the last page, which has room for its
			// head: none of it may have been written.
			if int64(durable)/page.Size != pages-1 {
				t.Fatalf("durable %d is not in the last page: the refused flush would not overlap the device", durable)
			}
			for i := 0; i < 3; i++ {
				if _, err := w.Flush(0, w.NextLSN()); !errors.Is(err, ErrLogFull) {
					t.Fatalf("flush %d after the log filled: %v, want ErrLogFull", i, err)
				}
				if err := commit(100 + i); !errors.Is(err, ErrLogFull) {
					t.Fatalf("commit %d after the log filled: %v, want ErrLogFull", i, err)
				}
			}
			if w.Durable() != durable || tc.dev.Stats().Writes != writes {
				t.Errorf("refused flushes moved durable %d -> %d, device writes %d -> %d", durable, w.Durable(), writes, tc.dev.Stats().Writes)
			}
			if !bytes.Equal(image, imageOf(t, tc.dev)) {
				t.Error("a refused flush changed the device image")
			}

			recs, end := scanAll(t, tc.dev)
			if end != durable || len(recs) != 2*acked {
				t.Fatalf("reopen reads %d records ending at %d, want the %d acknowledged commits ending at %d", len(recs), end, acked, durable)
			}
			for i, r := range recs {
				if int(r.Tx) != i/2+1 {
					t.Fatalf("record %d belongs to tx %d, want %d", i, r.Tx, i/2+1)
				}
			}
		})
	}
}

// TestSyncedFlushIsOneSync: with SetSyncOnWrite a flush is one device write
// and one fsync however many pages it spans (one of each per page before the
// range path), it ends at the sector that holds the stream end, not at the
// end of that page, and PageWrites still counts the pages it touched.
func TestSyncedFlushIsOneSync(t *testing.T) {
	dev := newFileDev(t, page.Size, 64)
	dev.SetSyncOnWrite(true)
	w := NewWriter(dev)
	for i := 0; i < 5; i++ { // 5 x 4,035 B = 20,175 B: into the third page
		w.Append(&Record{Type: RecHeapInsert, Tx: 1, Rel: 2, Data: make([]byte, 4000)})
	}
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.Syncs != 1 || st.Writes != 1 || st.BytesWritten != 40*sectorSize {
		t.Errorf("3-page flush: %d syncs, %d writes, %d bytes, want 1, 1, %d", st.Syncs, st.Writes, st.BytesWritten, 40*sectorSize)
	}
	if w.PageWrites() != 3 {
		t.Errorf("PageWrites = %d, want the 3 pages touched", w.PageWrites())
	}

	// The next commit lands in the sector the flush ended in: that sector only.
	w.Append(&Record{Type: RecCommit, Tx: 1})
	if _, err := w.Flush(0, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats(); d.Syncs != 2 || d.Writes != 2 || d.BytesWritten-st.BytesWritten != sectorSize {
		t.Errorf("commit flush: %d syncs, %d writes, %d bytes, want 2, 2, %d", d.Syncs, d.Writes, d.BytesWritten-st.BytesWritten, sectorSize)
	}
}

// TestTailReaderDuringSectorFlushes: a TailReader follows a File log while
// the writer flushes sector ranges into the very pages it reads. Every batch
// must be whole records, contiguous from the cursor, ending at or below the
// durable LSN it was given.
func TestTailReaderDuringSectorFlushes(t *testing.T) {
	const commits = 1500
	dev := newFileDev(t, page.Size, 256)
	w := NewWriter(dev)
	payload := func(tx txn.ID) []byte { return bytes.Repeat([]byte{byte(tx)}, 40+int(tx)%300) }

	var durable atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for tx := txn.ID(1); tx <= commits; tx++ {
			w.Append(&Record{Type: RecHeapInsert, Tx: tx, Rel: 2, Data: payload(tx)})
			lsn := w.Append(&Record{Type: RecCommit, Tx: tx})
			if _, err := w.Flush(0, lsn); err != nil {
				t.Error(err)
				return
			}
			durable.Store(uint64(lsn))
		}
	}()

	tr := NewTailReader(dev)
	cur, records := LSN(0), 0
	for {
		finished := done.Load() // read before the limit: a true here means the limit is final
		limit := LSN(durable.Load())
		start, data, next, err := tr.ReadBatch(cur, limit, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if start != cur || next != start+LSN(len(data)) || next > limit {
			t.Fatalf("batch [%d,%d) of %d bytes from cursor %d under limit %d", start, next, len(data), cur, limit)
		}
		for len(data) > 0 {
			rec, n, err := DecodeRecord(data)
			if err != nil {
				t.Fatalf("record %d of the stream, at %d: %v", records, next-LSN(len(data)), err)
			}
			if want := txn.ID(records/2 + 1); rec.Tx != want ||
				(rec.Type == RecHeapInsert && !bytes.Equal(rec.Data, payload(want))) {
				t.Fatalf("record %d is a %s of tx %d, want tx %d intact", records, rec.Type, rec.Tx, want)
			}
			records++
			data = data[n:]
		}
		cur = next
		if finished && cur == limit {
			break
		}
	}
	wg.Wait()
	if records != 2*commits {
		t.Fatalf("tailed %d records, want %d", records, 2*commits)
	}
}
