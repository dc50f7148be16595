package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// TestUndecodableVersionFailsEveryRead corrupts the stored payload of one
// row on the data device — a well-formed page and tuple whose row bytes no
// longer decode against the schema — and requires every read that reaches
// that version to fail with one CorruptRowError naming the table and the
// version, under both engines, instead of skipping the row.
func TestUndecodableVersionFailsEveryRead(t *testing.T) {
	for _, kind := range []Kind{KindSIAS, KindSI} {
		t.Run(kind.String(), func(t *testing.T) {
			data := device.NewMem(page.Size, 1<<12)
			opts := DefaultOptions(data, device.NewMem(page.Size, 1<<12))
			opts.Kind = kind
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, at, err := db.CreateTable(0, "acct", tuple.NewSchema(
				tuple.Column{Name: "id", Type: tuple.TypeInt64},
				tuple.Column{Name: "grp", Type: tuple.TypeInt64},
				tuple.Column{Name: "note", Type: tuple.TypeString},
			), "id")
			if err != nil {
				t.Fatal(err)
			}
			byGrp, at, err := tab.AddSecondaryIndex(at, "by_grp", func(v tuple.View) (int64, bool) { return v.Int64(1), true })
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for k := int64(1); k <= 8; k++ {
				if at, err = tab.Insert(tx, at, tuple.Row{k, k % 2, "note"}); err != nil {
					t.Fatal(err)
				}
			}
			if at, err = db.Commit(tx, at); err != nil {
				t.Fatal(err)
			}
			const bad = int64(5)
			vid, tid := locate(t, db, tab, at, bad)
			if at, err = db.Checkpoint(at); err != nil {
				t.Fatal(err)
			}
			corruptPayload(t, db, data, tab, tid)

			wantCorrupt := func(what string, err error) {
				t.Helper()
				var ce *CorruptRowError
				if !errors.As(err, &ce) {
					t.Fatalf("%s: err = %v, want a CorruptRowError", what, err)
				}
				if ce.Table != "acct" || (kind == KindSIAS && ce.VID != vid) || (kind == KindSI && ce.TID != tid) {
					t.Fatalf("%s: %v names the wrong version (want VID %d / TID %v)", what, ce, vid, tid)
				}
				if !strings.Contains(ce.Error(), "acct") {
					t.Fatalf("%s: %q does not name the table", what, ce.Error())
				}
			}
			r := db.Begin()
			defer db.Commit(r, at)
			_, _, err = tab.Get(r, at, bad)
			wantCorrupt("Get", err)
			if v, _, err := tab.Get(r, at, bad+1); err != nil || v.Int64(0) != bad+1 {
				t.Fatalf("Get of an intact row: %v, %v", v, err)
			}
			all := func(tuple.View) bool { return true }
			_, err = tab.Scan(r, at, all)
			wantCorrupt("Scan", err)
			_, err = tab.RangeByKey(r, at, 1, 8, all)
			wantCorrupt("RangeByKey", err)
			_, err = tab.RangeBySecondary(r, at, byGrp, bad%2, bad%2, func(int64, tuple.View) bool { return true })
			wantCorrupt("RangeBySecondary", err)
			_, err = tab.ParallelScan(r, at, 2, func(tuple.View) {})
			wantCorrupt("ParallelScan", err)
		})
	}
}

// locate returns where key's visible version lies: its VID under SIAS, its
// TID under both.
func locate(t *testing.T, db *DB, tab *Table, at simclock.Time, key int64) (uint64, page.TID) {
	t.Helper()
	r := db.Begin()
	defer db.Commit(r, at)
	var vid uint64
	var tid page.TID
	found := func(v uint64, at page.TID, _ []byte) error {
		vid, tid = v, at
		return nil
	}
	var err error
	if tab.sias != nil {
		if _, err = tab.sias.Get(r, at, key, found); err == nil {
			tid, _ = tab.sias.VIDMap().Get(vid) // SIAS names the version by VID alone
		}
	} else {
		_, err = tab.si.Get(r, at, key, found)
	}
	if err != nil || !tid.Valid() {
		t.Fatalf("locate key %d: %v at %v, %v", key, vid, tid, err)
	}
	return vid, tid
}

// corruptPayload rewrites the first byte of the row stored at tid — the
// presence byte of its first column — to a value no row encodes, reseals the
// page's checksum on the device, and drops the pool's copy so the next read
// comes from the device.
func corruptPayload(t *testing.T, db *DB, data *device.Mem, tab *Table, tid page.TID) {
	t.Helper()
	dev, err := db.alloc.DevicePage(tab.heapID, tid.Block)
	if err != nil {
		t.Fatal(err)
	}
	pg := make(page.Page, page.Size)
	if _, err := data.ReadPage(0, dev, pg); err != nil {
		t.Fatal(err)
	}
	raw, err := pg.Tuple(int(tid.Slot))
	if err != nil {
		t.Fatal(err)
	}
	hdr := tuple.SIASHeaderSize
	if tab.si != nil {
		hdr = tuple.SIHeaderSize
	}
	raw[hdr] = 7
	pg.UpdateChecksum()
	if _, err := data.WritePage(0, dev, pg); err != nil {
		t.Fatal(err)
	}
	db.pool.InvalidateAll()
}

// TestHeapReadFailureFailsEveryOperation fails every device read of the
// heap's first page, where all the rows live, and requires every operation
// that reaches a version there to return that failure under both engines,
// instead of passing over the version as if vacuum had removed it.
func TestHeapReadFailureFailsEveryOperation(t *testing.T) {
	boom := errors.New("boom")
	for _, kind := range kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			dev := device.NewWrap(device.NewMem(page.Size, 1<<12))
			var failPage atomic.Int64
			failPage.Store(-1)
			dev.SetReadHook(func(pageNo int64, n int) error {
				if p := failPage.Load(); p >= pageNo && p < pageNo+int64(n) {
					return boom
				}
				return nil
			})
			opts := DefaultOptions(dev, device.NewMem(page.Size, 1<<12))
			opts.Kind = kind
			opts.PoolFrames = 32
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			byBal, at, err := tab.AddSecondaryIndex(at, "by_balance", func(v tuple.View) (int64, bool) { return v.Int64(2), true })
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for k := int64(1); k <= 8; k++ {
				if at, err = tab.Insert(tx, at, tuple.Row{k, "r", k * 10}); err != nil {
					t.Fatal(err)
				}
			}
			if at, err = db.Commit(tx, at); err != nil {
				t.Fatal(err)
			}
			if at, err = db.Checkpoint(at); err != nil {
				t.Fatal(err)
			}
			heap0, err := db.alloc.DevicePage(tab.heapID, 0)
			if err != nil {
				t.Fatal(err)
			}
			db.pool.InvalidateAll()
			failPage.Store(heap0)

			wantBoom := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, boom) {
					t.Errorf("%s: err = %v, want the device's read failure", what, err)
				}
			}
			r := db.Begin()
			_, _, err = tab.Get(r, at, 1)
			wantBoom("Get", err)
			n := 0
			count := func(tuple.View) bool { n++; return true }
			_, err = tab.Scan(r, at, count)
			wantBoom("Scan", err)
			_, err = tab.RangeByKey(r, at, 1, 5, count)
			wantBoom("RangeByKey", err)
			_, err = tab.RangeBySecondary(r, at, byBal, 10, 50, func(int64, tuple.View) bool { n++; return true })
			wantBoom("RangeBySecondary", err)
			if n != 0 {
				t.Errorf("the reads handed out %d rows, want none", n)
			}
			db.Commit(r, at)
			w := db.Begin()
			_, err = tab.Update(w, at, 2, rowUpdate(func(row tuple.Row) (tuple.Row, error) { return row, nil }))
			wantBoom("Update", err)
			_, err = tab.Delete(w, at, 3)
			wantBoom("Delete", err)
			db.Abort(w, at)
		})
	}
}
