package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// crashAndRecover simulates a crash (buffered pages lost, WAL survives) and
// reopens the database on the same devices.
func crashAndRecover(t *testing.T, kind Kind, data, walDev device.BlockDevice) (*DB, *Table) {
	t.Helper()
	opts := DefaultOptions(data, walDev)
	opts.Kind = kind
	opts.Recover = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(0); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func TestRecoveryCommittedSurvivesCrash(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			// Commit 20 inserts and 10 updates; NO checkpoint: data pages
			// never reach the device, only the WAL does.
			for i := int64(1); i <= 20; i++ {
				tx := db.Begin()
				at, err = tab.Insert(tx, at, tuple.Row{i, fmt.Sprintf("u%d", i), i})
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			for i := int64(1); i <= 10; i++ {
				tx := db.Begin()
				at, err = tab.Update(tx, at, i, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
					r[2] = r[2].(int64) * 100
					return r, nil
				}))
				if err != nil {
					t.Fatal(err)
				}
				at, _ = db.Commit(tx, at)
			}
			// Loser: uncommitted at crash.
			loser := db.Begin()
			at, _ = tab.Update(loser, at, 15, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = int64(-1)
				return r, nil
			}))
			// CRASH: drop the buffer pool, reopen from devices.
			db.Pool().InvalidateAll()

			db2, tab2 := crashAndRecover(t, k, data, walDev)
			check := db2.Begin()
			at2 := simclock.Time(0)
			for i := int64(1); i <= 20; i++ {
				row, a, err := getRow(tab2, check, at2, i)
				at2 = a
				if err != nil {
					t.Fatalf("key %d lost after crash: %v", i, err)
				}
				want := i
				if i <= 10 {
					want = i * 100
				}
				if row[2] != want {
					t.Errorf("key %d balance = %v, want %d", i, row[2], want)
				}
			}
			db2.Commit(check, at2)
		})
	}
}

func TestRecoveryAfterCheckpointAndMoreWork(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, _ := Open(opts)
			tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
			for i := int64(1); i <= 10; i++ {
				tx := db.Begin()
				at, _ = tab.Insert(tx, at, tuple.Row{i, "pre", i})
				at, _ = db.Commit(tx, at)
			}
			var err error
			at, err = db.Checkpoint(at)
			if err != nil {
				t.Fatal(err)
			}
			// Post-checkpoint work, unflushed.
			for i := int64(11); i <= 15; i++ {
				tx := db.Begin()
				at, _ = tab.Insert(tx, at, tuple.Row{i, "post", i})
				at, _ = db.Commit(tx, at)
			}
			db.Pool().InvalidateAll()

			db2, tab2 := crashAndRecover(t, k, data, walDev)
			check := db2.Begin()
			at2 := simclock.Time(0)
			for i := int64(1); i <= 15; i++ {
				if _, a, err := getRow(tab2, check, at2, i); err != nil {
					t.Errorf("key %d lost: %v", i, err)
				} else {
					at2 = a
				}
			}
			db2.Commit(check, at2)
		})
	}
}

func TestRecoveryUncommittedInvisible(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, _ := Open(opts)
			tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")

			committed := db.Begin()
			at, _ = tab.Insert(committed, at, tuple.Row{int64(1), "keep", int64(1)})
			at, _ = db.Commit(committed, at)

			// Uncommitted insert whose heap pages DO hit the device (forced
			// checkpoint) but whose commit record never does.
			loser := db.Begin()
			at, _ = tab.Insert(loser, at, tuple.Row{int64(2), "lose", int64(2)})
			at, _ = db.Checkpoint(at)
			db.Pool().InvalidateAll()

			db2, tab2 := crashAndRecover(t, k, data, walDev)
			check := db2.Begin()
			if _, _, err := getRow(tab2, check, 0, 1); err != nil {
				t.Errorf("committed row lost: %v", err)
			}
			if _, _, err := getRow(tab2, check, 0, 2); !errors.Is(err, ErrNotFound) {
				t.Errorf("uncommitted row visible after recovery: %v", err)
			}
			db2.Commit(check, 0)
		})
	}
}

// TestRecoverEndsAtTornLogHole: a torn flush lost the sector that holds the
// header of a transaction's insert, and its commit record, on the next page,
// reached the device. The log ends where the insert starts, so recovery must
// leave that transaction uncommitted rather than commit it without its heap
// records. Advisory trace records pad the log so the insert starts on a
// sector boundary and the commit on a page boundary.
func TestRecoverEndsAtTornLogHole(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	db, err := Open(DefaultOptions(data, walDev))
	if err != nil {
		t.Fatal(err)
	}
	tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	kept := db.Begin()
	at, _ = tab.Insert(kept, at, tuple.Row{int64(1), "kept", int64(1)})
	at, _ = db.Commit(kept, at)

	w := db.WAL()
	header := wal.LSN(len(wal.EncodeRecord(&wal.Record{})))
	padTo := func(tx txn.ID, unit wal.LSN) {
		size := (unit - w.NextLSN()%unit) % unit
		if size > 0 && size < header {
			size += unit
		}
		if size > 0 {
			w.Append(&wal.Record{Type: wal.RecTraceCtx, Tx: tx, Data: make([]byte, size-header)})
		}
	}
	torn := db.Begin()
	padTo(kept.ID, 512)
	insertAt := w.NextLSN()
	at, _ = tab.Insert(torn, at, tuple.Row{int64(2), "torn", int64(2)})
	padTo(torn.ID, page.Size)
	commitAt := w.NextLSN()
	if _, err := db.Commit(torn, at); err != nil {
		t.Fatal(err)
	}
	if commitAt < insertAt+512 {
		t.Fatalf("the commit at %d lies in the sector the insert at %d starts", commitAt, insertAt)
	}

	buf := make([]byte, page.Size)
	pg := int64(insertAt) / page.Size
	if _, err := walDev.ReadPage(0, pg, buf); err != nil {
		t.Fatal(err)
	}
	off := int(insertAt) % page.Size
	clear(buf[off : off+512])
	if _, err := walDev.WritePage(0, pg, buf); err != nil {
		t.Fatal(err)
	}

	db2, tab2 := crashAndRecover(t, KindSIAS, data, walDev)
	if got := db2.Stats().RecoverLogBytes; got != int64(insertAt) {
		t.Errorf("recovery replayed %d log bytes, want %d, up to the lost insert", got, insertAt)
	}
	if st := db2.Txns().CLOG().Get(torn.ID); st == txn.StatusCommitted {
		t.Errorf("tx %d, whose insert was lost, recovered as committed", torn.ID)
	}
	check := db2.Begin()
	if _, _, err := getRow(tab2, check, 0, 1); err != nil {
		t.Errorf("committed row lost: %v", err)
	}
	if _, _, err := getRow(tab2, check, 0, 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("the torn transaction's row: %v, want ErrNotFound", err)
	}
	db2.Commit(check, 0)
}

func TestRecoveryDeleteSurvives(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, _ := Open(opts)
			tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
			tx := db.Begin()
			at, _ = tab.Insert(tx, at, tuple.Row{int64(1), "x", int64(1)})
			at, _ = db.Commit(tx, at)
			del := db.Begin()
			at, _ = tab.Delete(del, at, 1)
			at, _ = db.Commit(del, at)
			db.Pool().InvalidateAll()

			db2, tab2 := crashAndRecover(t, k, data, walDev)
			check := db2.Begin()
			if _, _, err := getRow(tab2, check, 0, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted row resurrected: %v", err)
			}
			db2.Commit(check, 0)
		})
	}
}

func TestRecoveryTxnIDsAdvance(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	db, _ := Open(opts)
	tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
	var maxID uint64
	for i := int64(1); i <= 5; i++ {
		tx := db.Begin()
		maxID = uint64(tx.ID)
		at, _ = tab.Insert(tx, at, tuple.Row{i, "x", i})
		at, _ = db.Commit(tx, at)
	}
	db.Pool().InvalidateAll()
	db2, _ := crashAndRecover(t, KindSIAS, data, walDev)
	tx := db2.Begin()
	if uint64(tx.ID) <= maxID {
		t.Errorf("post-recovery txid %d not past pre-crash max %d", tx.ID, maxID)
	}
	db2.Commit(tx, 0)
}

func TestDoubleCrashRecovery(t *testing.T) {
	// Recover, do more work, crash again, recover again: the records written
	// after the first recovery must replay after the earlier ones.
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	db, _ := Open(opts)
	tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
	tx := db.Begin()
	at, _ = tab.Insert(tx, at, tuple.Row{int64(1), "gen1", int64(1)})
	at, _ = db.Commit(tx, at)
	db.Pool().InvalidateAll()

	db2, tab2 := crashAndRecover(t, KindSIAS, data, walDev)
	tx2 := db2.Begin()
	at2, _ := tab2.Insert(tx2, 0, tuple.Row{int64(2), "gen2", int64(2)})
	at2, _ = db2.Commit(tx2, at2)
	db2.Pool().InvalidateAll()

	db3, tab3 := crashAndRecover(t, KindSIAS, data, walDev)
	check := db3.Begin()
	for i := int64(1); i <= 2; i++ {
		if _, _, err := getRow(tab3, check, 0, i); err != nil {
			t.Errorf("key %d lost after double crash: %v", i, err)
		}
	}
	db3.Commit(check, 0)
}

// TestRecoverHoldsNoLog pins the shape of recovery: Open's analysis pass
// reads every log page once and keeps none of it — the live heap grows by a
// fraction of the log — and Recover's redo pass reads every page holding a
// record below the end Open found exactly once more, however many record
// types it replays. The one page read once more is the page the log ends
// inside, which the writer that continues the log reloads in Open.
func TestRecoverHoldsNoLog(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			// Control records of every kind recovery acts on: extent grants,
			// DDL, commits, an abort, a checkpoint, a prepare with no outcome,
			// and a writer with no outcome at all. Rows of one per page make
			// the log megabytes long.
			name := strings.Repeat("x", 6000)
			write := func(lo, hi int64) {
				for i := lo; i <= hi; i++ {
					tx := db.Begin()
					at, _ = tab.Insert(tx, at, tuple.Row{i, name, i})
					at, _ = db.Commit(tx, at)
				}
			}
			write(1, 300)
			if at, err = db.CreateIndexLogged(at, "accounts", "by_balance", "balance"); err != nil {
				t.Fatal(err)
			}
			aborted := db.Begin()
			at, _ = tab.Insert(aborted, at, tuple.Row{int64(1000), "no", int64(0)})
			at, _ = db.Abort(aborted, at)
			if at, err = db.Checkpoint(at); err != nil {
				t.Fatal(err)
			}
			write(301, 600)
			prepared := db.Begin()
			at, _ = tab.Insert(prepared, at, tuple.Row{int64(1001), "in doubt", int64(0)})
			if at, err = db.Prepare(prepared, 9, 0, at); err != nil {
				t.Fatal(err)
			}
			loser := db.Begin()
			at, _ = tab.Insert(loser, at, tuple.Row{int64(1002), "lost", int64(0)})
			write(601, 610) // the commits flush the loser's record too
			db.Pool().InvalidateAll()
			end, err := wal.Scan(walDev, func(wal.LSN, wal.Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			endPage := (int64(end) + page.Size - 1) / page.Size // pages [0, endPage) hold records
			// passes reads of page p, the tail page's reload on top.
			wantReads := func(p int64, passes int) int {
				if int64(end)%page.Size != 0 && p == endPage-1 {
					return passes + 1
				}
				return passes
			}

			reads := map[int64]int{}
			wrapped := device.NewWrap(walDev)
			wrapped.SetReadHook(func(pageNo int64, n int) error {
				for i := int64(0); i < int64(n); i++ {
					reads[pageNo+i]++
				}
				return nil
			})
			ropts := DefaultOptions(data, wrapped)
			ropts.Kind = k
			ropts.Recover = true
			before := liveHeap()
			db2, err := Open(ropts)
			if err != nil {
				t.Fatal(err)
			}
			grew := liveHeap() - before
			if grew >= int64(end)/4 {
				t.Errorf("Open grew the live heap by %d bytes, want < a quarter of the %d-byte log", grew, end)
			}
			t.Logf("Open over a %d-byte log grew the live heap by %d bytes", end, grew)
			for p := int64(0); p < endPage; p++ {
				if reads[p] != wantReads(p, 1) {
					t.Fatalf("Open read log page %d %d times, want %d", p, reads[p], wantReads(p, 1))
				}
			}
			for p, n := range reads {
				if n != wantReads(p, 1) {
					t.Errorf("Open read log page %d %d times", p, n)
				}
			}
			tab2, _, err := db2.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db2.Recover(0); err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < endPage; p++ {
				if reads[p] != wantReads(p, 2) {
					t.Errorf("log page %d read %d times by Open and Recover, want %d", p, reads[p], wantReads(p, 2))
					break
				}
			}
			for p, n := range reads {
				if n > wantReads(p, 2) {
					t.Errorf("log page %d read %d times by Open and Recover", p, n)
				}
			}
			// And it did recover: every committed row, none of the others.
			check := db2.Begin()
			n := 0
			if _, err := tab2.Scan(check, 0, rowVisit(func(tuple.Row) bool { n++; return true })); err != nil {
				t.Fatal(err)
			}
			if n != 610 {
				t.Errorf("recovered %d rows, want 610", n)
			}
			db2.Commit(check, 0)
			if st := db2.Stats(); st.InDoubtAborts != 1 {
				t.Errorf("in-doubt aborts = %d, want 1", st.InDoubtAborts)
			}
		})
	}
}

// TestRecoverStopsAtTheAnalysedEnd pins that the redo pass replays the log
// Open analysed and nothing the writer appended after it: a record
// flushed between Open and Recover — here an outcome for the in-doubt
// participant, which would commit it — is on the device when Recover reads it,
// and must not be applied.
func TestRecoverStopsAtTheAnalysedEnd(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, at, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			at, _ = tab.Insert(tx, at, tuple.Row{int64(1), "kept", int64(1)})
			at, _ = db.Commit(tx, at)
			prepared := db.Begin()
			at, _ = tab.Insert(prepared, at, tuple.Row{int64(2), "in doubt", int64(2)})
			if _, err := db.Prepare(prepared, 9, 0, at); err != nil {
				t.Fatal(err)
			}
			db.Pool().InvalidateAll()

			opts.Recover = true
			db2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab2, _, err := db2.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			w := db2.WAL()
			if _, err := w.Flush(0, w.Append(&wal.Record{Type: wal.RecCommit, Tx: prepared.ID})); err != nil {
				t.Fatal(err)
			}
			if _, err := db2.Recover(0); err != nil {
				t.Fatal(err)
			}
			if st := db2.Stats(); st.InDoubtAborts != 1 {
				t.Errorf("in-doubt aborts = %d, want 1: Recover applied a record past the end Open found", st.InDoubtAborts)
			}
			check := db2.Begin()
			if _, _, err := getRow(tab2, check, 0, 2); !errors.Is(err, ErrNotFound) {
				t.Errorf("in-doubt row visible after recovery: %v", err)
			}
			db2.Commit(check, 0)
		})
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
