package si

import (
	"errors"
	"fmt"
	"testing"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/index"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
	"sias/internal/txn"
	"sias/internal/wal"
)

type env struct {
	dev  *device.Mem
	pool *buffer.Pool
	txm  *txn.Manager
	rel  *Relation
}

func newEnv(t *testing.T) *env {
	t.Helper()
	dev := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	pool := buffer.New(buffer.Config{Frames: 1024, HitCost: 0}, dev)
	alloc := space.NewAllocator(dev.NumPages(), 64)
	walw := wal.NewWriter(walDev)
	txm := txn.NewManager()
	rel, _, err := New(0, Config{ID: 1, Name: "t", Pool: pool, Alloc: alloc, WAL: walw, Txns: txm, PKRelID: 2, KeyOf: keyOf})
	if err != nil {
		t.Fatal(err)
	}
	return &env{dev, pool, txm, rel}
}

func keyOf(payload []byte) int64 {
	// Tests use single-byte-prefixed payloads "k<NN>...": recover via map.
	var k int64
	fmt.Sscanf(string(payload), "k%d", &k)
	return k
}

// get returns the payload and place of key's version visible to tx.
func (e *env) get(tx *txn.Tx, at simclock.Time, key int64) ([]byte, page.TID, simclock.Time, error) {
	var payload []byte
	var tid page.TID
	at, err := e.rel.Get(tx, at, key, func(_ uint64, t page.TID, p []byte) error {
		payload, tid = p, t
		return nil
	})
	return payload, tid, at, err
}

// anyVersion is a Delete check that accepts every version.
func anyVersion(uint64, page.TID, []byte) error { return nil }

func pl(key int64, suffix string) []byte { return []byte(fmt.Sprintf("k%d:%s", key, suffix)) }

func TestInsertGetVisible(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, err := e.rel.Insert(tx, 0, 1, pl(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, at, err := e.get(tx, at, 1)
	if err != nil || string(got) != "k1:a" {
		t.Errorf("own insert: %q %v", got, err)
	}
	e.txm.Commit(tx)
	r := e.txm.Begin()
	if _, _, _, err := e.get(r, at, 2); !errors.Is(err, index.ErrNoRow) {
		t.Errorf("missing key err = %v", err)
	}
	e.txm.Commit(r)
}

func TestUpdateInvalidatesInPlace(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "v0"))
	e.txm.Commit(tx)

	before := e.rel.Stats().InPlaceUpdates
	u := e.txm.Begin()
	at, err := e.rel.Update(u, at, 1, func(_ uint64, _ page.TID, old []byte) ([]byte, int64, error) {
		return pl(1, "v1"), 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(u)
	if e.rel.Stats().InPlaceUpdates != before+1 {
		t.Error("update must invalidate the old version in place")
	}
	r := e.txm.Begin()
	got, _, _, err := e.get(r, at, 1)
	if err != nil || string(got) != "k1:v1" {
		t.Errorf("after update: %q %v", got, err)
	}
	e.txm.Commit(r)
}

func TestSnapshotReadOldVersion(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "old"))
	e.txm.Commit(tx)
	reader := e.txm.Begin()
	writer := e.txm.Begin()
	at, _ = e.rel.Update(writer, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return pl(1, "new"), 1, nil
	})
	e.txm.Commit(writer)
	got, _, _, err := e.get(reader, at, 1)
	if err != nil || string(got) != "k1:old" {
		t.Errorf("snapshot read = %q, %v; want old", got, err)
	}
	e.txm.Commit(reader)
}

func TestFirstUpdaterWinsSI(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "v0"))
	e.txm.Commit(tx)
	t1 := e.txm.Begin()
	t2 := e.txm.Begin()
	at, err := e.rel.Update(t1, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return pl(1, "t1"), 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(t1)
	_, err = e.rel.Update(t2, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return pl(1, "t2"), 1, nil
	})
	if !errors.Is(err, txn.ErrSerialization) {
		t.Errorf("err = %v, want ErrSerialization", err)
	}
	e.txm.Abort(t2)
}

func TestDeleteSetsXmax(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "x"))
	e.txm.Commit(tx)
	old := e.txm.Begin()
	del := e.txm.Begin()
	at, err := e.rel.Delete(del, at, 1, anyVersion)
	if err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(del)
	// Old snapshot still sees the row (xmax not visible to it).
	if got, _, _, err := e.get(old, at, 1); err != nil || string(got) != "k1:x" {
		t.Errorf("old snapshot after delete: %q %v", got, err)
	}
	e.txm.Commit(old)
	fresh := e.txm.Begin()
	if _, _, _, err := e.get(fresh, at, 1); !errors.Is(err, index.ErrNoRow) {
		t.Errorf("fresh read of deleted row: %v", err)
	}
	e.txm.Commit(fresh)
}

func TestScanTraditional(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at := simclock.Time(0)
	for i := int64(0); i < 15; i++ {
		at, _ = e.rel.Insert(tx, at, i, pl(i, "s"))
	}
	e.txm.Commit(tx)
	r := e.txm.Begin()
	n := 0
	at, err := e.rel.Scan(r, at, func(_ uint64, _ page.TID, payload []byte) bool {
		n++
		return true
	})
	if err != nil || n != 15 {
		t.Errorf("scan n=%d err=%v", n, err)
	}
	e.txm.Commit(r)
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "v0"))
	e.txm.Commit(tx)
	for i := 1; i <= 10; i++ {
		u := e.txm.Begin()
		at, _ = e.rel.Update(u, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
			return pl(1, fmt.Sprintf("v%d", i)), 1, nil
		})
		e.txm.Commit(u)
	}
	horizon := e.txm.Horizon()
	_, at, err := e.rel.Vacuum(at, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Opportunistic pruning during the updates plus the explicit vacuum
	// must have reclaimed all 10 superseded versions.
	if got := e.rel.Stats().VacuumedTuples; got != 10 {
		t.Errorf("reclaimed %d versions (prune+vacuum), want 10", got)
	}
	// Current version intact.
	r := e.txm.Begin()
	got, _, _, err := e.get(r, at, 1)
	if err != nil || string(got) != "k1:v10" {
		t.Errorf("after vacuum: %q %v", got, err)
	}
	e.txm.Commit(r)
	// Index pruned: exactly one candidate remains.
	if e.rel.PK.Len() != 1 {
		t.Errorf("index entries = %d, want 1", e.rel.PK.Len())
	}
}

func TestVacuumSparesVisibleVersions(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "old"))
	e.txm.Commit(tx)
	pinned := e.txm.Begin() // holds horizon
	u := e.txm.Begin()
	at, _ = e.rel.Update(u, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return pl(1, "new"), 1, nil
	})
	e.txm.Commit(u)
	_, at, err := e.rel.Vacuum(at, e.txm.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := e.get(pinned, at, 1)
	if err != nil || string(got) != "k1:old" {
		t.Errorf("pinned snapshot lost version to vacuum: %q %v", got, err)
	}
	e.txm.Commit(pinned)
}

func TestVacuumRemovesAbortedInserts(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "ghost"))
	e.txm.Abort(tx)
	n, _, err := e.rel.Vacuum(at, e.txm.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("vacuumed %d, want 1 aborted insert", n)
	}
}

func TestFreeSpaceReuseAfterVacuum(t *testing.T) {
	e := newEnv(t)
	at := simclock.Time(0)
	tx := e.txm.Begin()
	at, _ = e.rel.Insert(tx, at, 1, pl(1, "v"))
	e.txm.Commit(tx)
	// Generate garbage and vacuum it; new versions must reuse block 0
	// (scattered placement into freed space: the random-write pattern).
	for i := 0; i < 200; i++ {
		u := e.txm.Begin()
		at, _ = e.rel.Update(u, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
			return pl(1, fmt.Sprintf("v%d", i)), 1, nil
		})
		e.txm.Commit(u)
		if i%50 == 49 {
			_, at, _ = e.rel.Vacuum(at, e.txm.Horizon())
		}
	}
	if e.rel.Blocks() > 3 {
		t.Errorf("blocks = %d: vacuum should let SI reuse space", e.rel.Blocks())
	}
}

func TestUpdateAddsIndexEntryEvenWithoutKeyChange(t *testing.T) {
	// Pre-HOT PostgreSQL behaviour the paper compares against: every new
	// version gets an index entry even when the key is unchanged.
	e := newEnv(t)
	tx := e.txm.Begin()
	at, _ := e.rel.Insert(tx, 0, 1, pl(1, "v0"))
	e.txm.Commit(tx)
	before := e.rel.Stats().IndexInserts
	u := e.txm.Begin()
	at, _ = e.rel.Update(u, at, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return pl(1, "v1"), 1, nil
	})
	e.txm.Commit(u)
	if got := e.rel.Stats().IndexInserts; got != before+1 {
		t.Errorf("index inserts = %d, want %d", got, before+1)
	}
	_ = at
}

// TestScanStopsAtUndecodableHeader: a slot whose bytes are too short for a
// version header fails the scan that reaches it, after the rows before it.
func TestScanStopsAtUndecodableHeader(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at, err := e.rel.Insert(tx, 0, 1, pl(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(tx)
	f, at, err := e.rel.getPage(at, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	f.Lock()
	_, err = f.Data.Insert([]byte{1, 2})
	f.Unlock()
	e.pool.Release(f, true)
	if err != nil {
		t.Fatal(err)
	}
	r := e.txm.Begin()
	defer e.txm.Commit(r)
	n := 0
	if _, err := e.rel.Scan(r, at, func(uint64, page.TID, []byte) bool { n++; return true }); err == nil || n != 1 {
		t.Errorf("scan over an undecodable header: %d rows, err %v; want the row before it and an error", n, err)
	}
}
