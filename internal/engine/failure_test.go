package engine

import (
	"errors"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/wal"
)

// TestTornWALTailLosesOnlyUncommitted corrupts the WAL beyond the last
// commit record (simulating a torn write at crash) and verifies recovery
// keeps every committed transaction and nothing else.
func TestTornWALTailLosesOnlyUncommitted(t *testing.T) {
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
			at, _ = tab.Insert(tx, at, tuple.Row{int64(1), "keep", int64(1)})
			at, _ = db.Commit(tx, at)

			// Uncommitted work whose WAL records get flushed by checkpoint
			// and then torn.
			loser := db.Begin()
			at, _ = tab.Insert(loser, at, tuple.Row{int64(2), "torn", int64(2)})
			db.WAL().Flush(at, db.WAL().NextLSN())

			// Tear: flip bytes in the last written WAL page.
			end, _ := wal.Scan(walDev, func(wal.LSN, wal.Record) error { return nil })
			tearPage := int64(end) / int64(page.Size)
			buf := make([]byte, page.Size)
			walDev.ReadPage(0, tearPage, buf)
			for i := int(end) % page.Size; i < page.Size; i++ {
				buf[i] ^= 0xA5
			}
			// Also corrupt a few bytes inside the last record region to
			// simulate the torn sector.
			walDev.WritePage(0, tearPage, buf)

			db.Pool().InvalidateAll()
			db2, tab2 := crashAndRecover(t, k, data, walDev)
			check := db2.Begin()
			if _, _, err := getRow(tab2, check, 0, 1); err != nil {
				t.Errorf("committed row lost: %v", err)
			}
			if _, _, err := getRow(tab2, check, 0, 2); !errors.Is(err, ErrNotFound) {
				t.Errorf("uncommitted row visible: %v", err)
			}
			db2.Commit(check, 0)
		})
	}
}

// TestCrashBeforeCommitRecordDiscardsTxn: heap records durable, commit
// record not — the transaction must disappear.
func TestCrashBeforeCommitRecordDiscardsTxn(t *testing.T) {
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
			at, _ = tab.Insert(tx, at, tuple.Row{int64(5), "phantom", int64(5)})
			// Force heap records durable WITHOUT the commit record.
			db.WAL().Flush(at, db.WAL().NextLSN())
			// Crash before Commit is called.
			db.Pool().InvalidateAll()

			db2, tab2 := crashAndRecover(t, k, data, walDev)
			check := db2.Begin()
			if _, _, err := getRow(tab2, check, 0, 5); !errors.Is(err, ErrNotFound) {
				t.Errorf("uncommitted insert visible after crash: %v", err)
			}
			db2.Commit(check, 0)
		})
	}
}

// TestRepeatedCrashRecoveryIdempotent: recovering the same devices twice in
// a row (crash during recovery, before any new work) must converge.
func TestRepeatedCrashRecoveryIdempotent(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	db, _ := Open(opts)
	tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
	for i := int64(1); i <= 12; i++ {
		tx := db.Begin()
		at, _ = tab.Insert(tx, at, tuple.Row{i, "r", i})
		at, _ = db.Commit(tx, at)
	}
	db.Pool().InvalidateAll()

	// First recovery: crash immediately after (no checkpoint).
	db2, _ := crashAndRecover(t, KindSIAS, data, walDev)
	db2.Pool().InvalidateAll()

	// Second recovery must still see all rows.
	db3, tab3 := crashAndRecover(t, KindSIAS, data, walDev)
	check := db3.Begin()
	at2 := simclock.Time(0)
	for i := int64(1); i <= 12; i++ {
		if _, a, err := getRow(tab3, check, at2, i); err != nil {
			t.Errorf("key %d lost after double recovery: %v", i, err)
		} else {
			at2 = a
		}
	}
	db3.Commit(check, at2)
}

// TestCorruptDataPageDetectedByChecksum verifies the checksum path catches
// bit rot on a flushed page.
func TestCorruptDataPageDetectedByChecksum(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	opts := DefaultOptions(data, walDev)
	db, _ := Open(opts)
	tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
	tx := db.Begin()
	at, _ = tab.Insert(tx, at, tuple.Row{int64(1), "x", int64(1)})
	at, _ = db.Commit(tx, at)
	at, _ = db.Checkpoint(at)

	// Find the flushed heap page and flip a byte.
	var pageNo int64 = -1
	buf := make([]byte, page.Size)
	for p := int64(0); p < 512; p++ {
		data.ReadPage(0, p, buf)
		pg := page.Page(buf)
		if pg.Initialized() && pg.NumSlots() > 0 && pg.RelID() == tab.SIAS().ID() {
			pageNo = p
			break
		}
	}
	if pageNo < 0 {
		t.Fatal("flushed heap page not found")
	}
	buf[page.Size/2] ^= 0xFF
	data.WritePage(0, pageNo, buf)

	check := make(page.Page, page.Size)
	data.ReadPage(0, pageNo, check)
	if err := check.VerifyChecksum(); err == nil {
		t.Error("corruption not detected by checksum")
	}
}

// TestWALDeviceExhaustionSurfacesError: an undersized WAL device must return
// a clean error, not corrupt state.
func TestWALDeviceExhaustionSurfacesError(t *testing.T) {
	data := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 4) // absurdly small
	opts := DefaultOptions(data, walDev)
	db, _ := Open(opts)
	tab, at, _ := db.CreateTable(0, "accounts", testSchema(), "id")
	var lastErr error
	for i := int64(0); i < 10000 && lastErr == nil; i++ {
		tx := db.Begin()
		at, lastErr = tab.Insert(tx, at, tuple.Row{i, "padpadpadpadpadpadpad", i})
		if lastErr == nil {
			at, lastErr = db.Commit(tx, at)
		}
	}
	if lastErr == nil {
		t.Fatal("expected WAL exhaustion error")
	}
}
