package engine

import (
	"errors"
	"strings"
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
	if tab.sias != nil {
		vids, _, err := tab.sias.VIDsForKey(at, key, nil)
		if err != nil || len(vids) != 1 {
			t.Fatalf("VIDs of key %d: %v, %v", key, vids, err)
		}
		tid, ok := tab.sias.VIDMap().Get(vids[0])
		if !ok {
			t.Fatalf("VID %d has no entrypoint", vids[0])
		}
		return vids[0], tid
	}
	_, tid, _, err := tab.si.Get(r, at, key)
	if err != nil {
		t.Fatal(err)
	}
	return 0, tid
}

// corruptPayload rewrites the first byte of the row stored at tid — the
// presence byte of its first column — to a value no row encodes, reseals the
// page's checksum on the device, and drops the pool's copy so the next read
// comes from the device.
func corruptPayload(t *testing.T, db *DB, data *device.Mem, tab *Table, tid page.TID) {
	t.Helper()
	dev, err := db.alloc.DevicePage(tab.heapID(), tid.Block)
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
