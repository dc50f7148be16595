package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/wal"
)

// heapPages copies every heap page of tab as db's pool holds it, by block.
func heapPages(t *testing.T, db *DB, tab *Table) [][]byte {
	t.Helper()
	var pages [][]byte
	for _, dev := range heapDevPages(t, db, tab) {
		f, _, err := db.pool.Get(0, dev, false)
		if err != nil {
			t.Fatal(err)
		}
		f.RLock()
		pages = append(pages, bytes.Clone(f.Data))
		f.RUnlock()
		db.pool.Release(f, false)
	}
	return pages
}

// heapDevPages lists the device pages that hold tab's heap blocks.
func heapDevPages(t *testing.T, db *DB, tab *Table) []int64 {
	t.Helper()
	var devs []int64
	for b := uint32(0); b < tab.sias.Blocks(); b++ {
		dev, err := db.alloc.DevicePage(tab.heapID(), b)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	return devs
}

// recoverCounting recovers a copy of walDev over data, counting the device
// reads of each data page.
func recoverCounting(t *testing.T, data, walDev *device.Mem) (*DB, *Table, map[int64]int) {
	t.Helper()
	reads := map[int64]int{}
	w := device.NewWrap(data)
	w.SetReadHook(func(p int64, n int) error {
		for i := 0; i < n; i++ {
			reads[p+int64(i)]++
		}
		return nil
	})
	db, tab := crashAndRecover(t, KindSIAS, w, cloneMem(t, walDev))
	return db, tab, reads
}

// samePages fails unless a and b are the same heap, page for page.
func samePages(t *testing.T, what string, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d heap pages vs %d", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("%s: heap block %d differs (%d vs %d slots)", what, i, page.Page(a[i]).NumSlots(), page.Page(b[i]).NumSlots())
		}
	}
}

// TestRedoFormatsBlockFromSlotZero pins the redo rule for a block's first
// insert: it formats the page and never reads the device. A crash leaves one
// heap block on the device with its first slots only — the pool was flushed
// part way through it, with no checkpoint record, so the redo point stays 0
// and redo replays every record — and recovery must give the same page bytes
// as a recovery over a device where no heap page was ever written, read no
// heap page in either, and serve every committed row.
func TestRedoFormatsBlockFromSlotZero(t *testing.T) {
	data := device.NewMem(page.Size, applyDataPages)
	walDev := device.NewMem(page.Size, applyWALPages)
	db, err := Open(DefaultOptions(data, walDev))
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("n", 500) // about 15 rows a page
	const rows = 100
	for i := int64(1); i <= rows; i++ {
		tx := db.Begin()
		if at, err = tab.Insert(tx, at, tuple.Row{i, name, i}); err != nil {
			t.Fatal(err)
		}
		if at, err = db.Commit(tx, at); err != nil {
			t.Fatal(err)
		}
		if i == 40 {
			if at, err = db.Pool().FlushAll(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := int64(1); i <= rows; i += 3 {
		tx := db.Begin()
		if at, err = tab.Update(tx, at, i, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
			r[2] = -i
			return r, nil
		})); err != nil {
			t.Fatal(err)
		}
		if at, err = db.Commit(tx, at); err != nil {
			t.Fatal(err)
		}
	}
	heap, live := heapDevPages(t, db, tab), heapPages(t, db, tab)
	db.Pool().InvalidateAll()

	// The crash left a heap page on the device that holds some slots of its
	// block, not all of them.
	partial := false
	buf := make([]byte, page.Size)
	for i, p := range heap {
		if _, err := data.ReadPage(0, p, buf); err != nil {
			t.Fatal(err)
		}
		if n := page.Page(buf).NumSlots(); n > 0 && n < page.Page(live[i]).NumSlots() {
			partial = true
		}
	}
	if !partial {
		t.Fatal("no heap page reached the device part-filled: the test does not test the rule")
	}
	zeroed := cloneMem(t, data)
	for _, p := range heap {
		if _, err := zeroed.WritePage(0, p, make([]byte, page.Size)); err != nil {
			t.Fatal(err)
		}
	}

	db1, tab1, reads1 := recoverCounting(t, data, walDev)
	db2, tab2, reads2 := recoverCounting(t, zeroed, walDev)
	for _, p := range heap {
		if reads1[p]+reads2[p] != 0 {
			t.Errorf("recovery read heap page %d (%d times over a flushed device, %d over a zeroed one), want never", p, reads1[p], reads2[p])
		}
	}
	samePages(t, "recovered over the flushed pages vs over zeroed ones", heapPages(t, db1, tab1), heapPages(t, db2, tab2))

	check := db1.Begin()
	var at1 simclock.Time
	for i := int64(1); i <= rows; i++ {
		row, a, err := getRow(tab1, check, at1, i)
		at1 = a
		want := i
		if (i-1)%3 == 0 {
			want = -i
		}
		if err != nil || row[2] != want {
			t.Fatalf("key %d after recovery: %v, %v; want balance %d", i, row, err, want)
		}
	}
	db1.Commit(check, at1)

	end, err := wal.Scan(walDev, func(wal.LSN, wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	if st.RecoverLogBytes != int64(end) {
		t.Errorf("Stats.RecoverLogBytes = %d, want the %d bytes of log", st.RecoverLogBytes, end)
	}
	if st.RecoverAnalyzeSeconds <= 0 || st.RecoverRedoSeconds <= 0 || st.RecoverRebuildSeconds <= 0 {
		t.Errorf("recovery phase durations analyze %g s, redo %g s, rebuild %g s: want each > 0",
			st.RecoverAnalyzeSeconds, st.RecoverRedoSeconds, st.RecoverRebuildSeconds)
	}
}

// TestRedoReusedBlockReplaysClean: GC reclaims heap blocks and later appends
// reuse them from slot 0, with the blocks' old lives flushed to the device
// before the reclaim. Crash recovery over that device, crash recovery over a
// device with every heap page zeroed, and a follower that applied the same
// log must end with the same heap pages and serve what the primary served —
// with a pool large enough to hold the heap, and with one small enough that
// the redo of a reused block finds its page evicted.
func TestRedoReusedBlockReplaysClean(t *testing.T) {
	for _, frames := range []int{2048, 16} {
		t.Run(fmt.Sprintf("frames%d", frames), func(t *testing.T) {
			data := device.NewMem(page.Size, applyDataPages)
			walDev := device.NewMem(page.Size, applyWALPages)
			opts := DefaultOptions(data, walDev)
			opts.PoolFrames = frames
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			ptab, at, err := p.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			name := strings.Repeat("r", 600)
			const keys = 30
			write := func(round int64) {
				for k := int64(1); k <= keys; k++ {
					tx := p.Begin()
					if round == 0 {
						at, err = ptab.Insert(tx, at, tuple.Row{k, name, k})
					} else {
						at, err = ptab.Update(tx, at, k, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
							r[2] = round*1000 + k
							return r, nil
						}))
					}
					if err != nil {
						t.Fatal(err)
					}
					if at, err = p.Commit(tx, at); err != nil {
						t.Fatal(err)
					}
				}
			}
			for round := int64(0); round < 4; round++ {
				write(round)
			}
			if at, err = p.Pool().FlushAll(at); err != nil { // the old lives reach the device
				t.Fatal(err)
			}
			if at, err = p.RunMaintenance(at); err != nil {
				t.Fatal(err)
			}
			if ptab.sias.Stats().GCPages == 0 {
				t.Fatal("GC reclaimed no block: the test does not test reuse")
			}
			free := func() int { return int(ptab.sias.Blocks()) - ptab.sias.LiveBlocks() }
			reclaimed := free()
			for round := int64(4); round < 6; round++ {
				write(round)
			}
			if free() >= reclaimed {
				t.Fatalf("%d blocks free after the reclaim, %d after more writes: none was reused", reclaimed, free())
			}
			if _, err := p.WAL().Flush(at, p.WAL().NextLSN()); err != nil {
				t.Fatal(err)
			}
			want := snapshotReads(t, p, ptab, keys, -1)
			heap := heapDevPages(t, p, ptab)
			p.Pool().InvalidateAll()

			zeroed := cloneMem(t, data)
			for _, pg := range heap {
				if _, err := zeroed.WritePage(0, pg, make([]byte, page.Size)); err != nil {
					t.Fatal(err)
				}
			}
			db1, tab1, _ := recoverCounting(t, data, walDev)
			db2, tab2, _ := recoverCounting(t, zeroed, walDev)
			fol := newApplyReplica(t, KindSIAS)
			fol.catchUp(t, scanLog(t, walDev))
			fol.refresh(t)

			diffStates(t, "recovered vs primary", want, snapshotReads(t, db1, tab1, keys, -1))
			diffStates(t, "follower vs primary", want, snapshotReads(t, fol.db, fol.tab, keys, -1))
			pages := heapPages(t, db1, tab1)
			samePages(t, "recovered over the flushed pages vs over zeroed ones", pages, heapPages(t, db2, tab2))
			samePages(t, "recovered vs follower", pages, heapPages(t, fol.db, fol.tab))
		})
	}
}
