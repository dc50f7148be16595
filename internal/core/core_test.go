package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/index"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

type env struct {
	dev   device.BlockDevice
	pool  *buffer.Pool
	alloc *space.Allocator
	walw  *wal.Writer
	txm   *txn.Manager
	rel   *Relation
}

func newEnv(t *testing.T) *env {
	t.Helper()
	return newEnvOn(t, device.NewMem(page.Size, 1<<16))
}

// newEnvOn builds a relation whose heap and indexes live on dev.
func newEnvOn(t *testing.T, dev device.BlockDevice) *env {
	t.Helper()
	walDev := device.NewMem(page.Size, 1<<14)
	pool := buffer.New(buffer.Config{Frames: 1024, HitCost: 0}, dev)
	alloc := space.NewAllocator(dev.NumPages(), 64)
	walw := wal.NewWriter(walDev)
	txm := txn.NewManager()
	rel, _, err := New(0, Config{
		ID: 1, Name: "t", Pool: pool, Alloc: alloc, WAL: walw, Txns: txm, PKRelID: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &env{dev, pool, alloc, walw, txm, rel}
}

func payload(s string) []byte { return []byte(s) }

// anyVersion is a deleteVID check that accepts every version.
func anyVersion(uint64, page.TID, []byte) error { return nil }

func TestInsertAssignsSequentialVIDs(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at := simclock.Time(0)
	for i := 0; i < 5; i++ {
		vid, a, err := e.rel.Insert(tx, at, int64(i), payload(fmt.Sprintf("v%d", i)))
		at = a
		if err != nil {
			t.Fatal(err)
		}
		if vid != uint64(i) {
			t.Errorf("vid = %d, want %d", vid, i)
		}
	}
	e.txm.Commit(tx)
}

func TestChainGrowsBackwards(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at := simclock.Time(0)
	vid, at, _ := e.rel.Insert(tx, at, 1, payload("v0"))
	e.txm.Commit(tx)
	// Three committed updates → chain of 4 versions.
	for i := 1; i <= 3; i++ {
		u := e.txm.Begin()
		var err error
		at, err = e.rel.updateVID(u, at, vid, 1, func(_ uint64, _ page.TID, old []byte) ([]byte, int64, error) {
			return payload(fmt.Sprintf("v%d", i)), 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.txm.Commit(u)
	}
	// Walk the raw chain from the entrypoint: creates strictly decrease.
	tid, ok := e.rel.VIDMap().Get(vid)
	if !ok {
		t.Fatal("no entrypoint")
	}
	var prev txn.ID = 1 << 62
	hops := 0
	for tid.Valid() {
		hdr, pl, _, err := e.rel.fetch(at, tid)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Create >= prev {
			t.Errorf("chain not ordered: %d then %d", prev, hdr.Create)
		}
		if hdr.VID != vid {
			t.Errorf("VID mismatch on chain: %d", hdr.VID)
		}
		prev = hdr.Create
		hops++
		_ = pl
		tid = hdr.Pred
	}
	if hops != 4 {
		t.Errorf("chain length = %d, want 4", hops)
	}
}

func TestOldSnapshotWalksChain(t *testing.T) {
	e := newEnv(t)
	setup := e.txm.Begin()
	at := simclock.Time(0)
	vid, at, _ := e.rel.Insert(setup, at, 1, payload("old"))
	e.txm.Commit(setup)

	oldReader := e.txm.Begin() // sees "old"
	writer := e.txm.Begin()
	at, _ = e.rel.updateVID(writer, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return payload("new"), 1, nil
	})
	e.txm.Commit(writer)

	got, at, err := e.rel.getVID(oldReader, at, vid)
	if err != nil || string(got) != "old" {
		t.Errorf("old reader got %q, %v", got, err)
	}
	st := e.rel.Stats()
	if st.ChainHops == 0 {
		t.Error("old reader should have walked at least one chain hop")
	}
	newReader := e.txm.Begin()
	got, _, err = e.rel.getVID(newReader, at, vid)
	if err != nil || string(got) != "new" {
		t.Errorf("new reader got %q, %v", got, err)
	}
	e.txm.Commit(oldReader)
	e.txm.Commit(newReader)
}

func TestNoInPlaceWritesOnUpdate(t *testing.T) {
	// The defining property: updates never modify existing tuple bytes.
	e := newEnv(t)
	setup := e.txm.Begin()
	at := simclock.Time(0)
	vid, at, _ := e.rel.Insert(setup, at, 1, payload("orig"))
	e.txm.Commit(setup)

	tidBefore, _ := e.rel.VIDMap().Get(vid)
	hdrBefore, plBefore, at, _ := e.rel.fetch(at, tidBefore)

	u := e.txm.Begin()
	at, _ = e.rel.updateVID(u, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
		return payload("changed"), 1, nil
	})
	e.txm.Commit(u)

	hdrAfter, plAfter, _, err := e.rel.fetch(at, tidBefore)
	if err != nil {
		t.Fatal(err)
	}
	if hdrAfter != hdrBefore || string(plAfter) != string(plBefore) {
		t.Error("old version bytes changed: SIAS must not invalidate in place")
	}
}

func TestTombstoneChain(t *testing.T) {
	e := newEnv(t)
	setup := e.txm.Begin()
	at := simclock.Time(0)
	vid, at, _ := e.rel.Insert(setup, at, 1, payload("x"))
	e.txm.Commit(setup)
	old := e.txm.Begin()
	del := e.txm.Begin()
	at, _ = e.rel.deleteVID(del, at, vid, anyVersion)
	e.txm.Commit(del)
	// Old transaction still reaches the predecessor through the tombstone.
	got, at, err := e.rel.getVID(old, at, vid)
	if err != nil || string(got) != "x" {
		t.Errorf("old reader through tombstone: %q %v", got, err)
	}
	// Double delete fails.
	del2 := e.txm.Begin()
	if _, err := e.rel.deleteVID(del2, at, vid, anyVersion); !errors.Is(err, index.ErrNoRow) {
		t.Errorf("second delete err = %v", err)
	}
	e.txm.Commit(old)
	e.txm.Commit(del2)
}

func TestScanUsesVIDMap(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at := simclock.Time(0)
	for i := 0; i < 20; i++ {
		_, a, err := e.rel.Insert(tx, at, int64(i), payload(fmt.Sprintf("r%d", i)))
		at = a
		if err != nil {
			t.Fatal(err)
		}
	}
	e.txm.Commit(tx)
	r := e.txm.Begin()
	var seen []uint64
	at, err := e.rel.Scan(r, at, func(vid uint64, _ page.TID, pl []byte) bool {
		seen = append(seen, vid)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("scan saw %d items, want 20", len(seen))
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Errorf("scan order: seen[%d] = %d (VID order expected)", i, v)
		}
	}
	e.txm.Commit(r)
}

func TestAppendPageSealOnFull(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at := simclock.Time(0)
	big := make([]byte, 2000)
	// 2000-byte payloads: ~3-4 fit per 8K page; 12 inserts need >1 page.
	for i := 0; i < 12; i++ {
		_, a, err := e.rel.Insert(tx, at, int64(i), big)
		at = a
		if err != nil {
			t.Fatal(err)
		}
	}
	e.txm.Commit(tx)
	if e.rel.Blocks() < 3 {
		t.Errorf("blocks = %d, want >= 3 (page-full sealing)", e.rel.Blocks())
	}
	st := e.rel.Stats()
	if st.PagesSealed < 2 {
		t.Errorf("sealed = %d, want >= 2", st.PagesSealed)
	}
}

func TestSealAppendThreshold(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	at := simclock.Time(0)
	_, at, _ = e.rel.Insert(tx, at, 1, payload("only one"))
	e.txm.Commit(tx)
	// Threshold t1: seal + flush a sparsely filled page.
	writesBefore := e.dev.Stats().Writes
	at, err := e.rel.SealAppend(at, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.dev.Stats().Writes != writesBefore+1 {
		t.Errorf("seal+flush wrote %d pages, want 1", e.dev.Stats().Writes-writesBefore)
	}
	st := e.rel.Stats()
	if st.PagesSealed != 1 || st.SealedTuples != 1 {
		t.Errorf("fill stats = %+v", st)
	}
	// The next insert opens a fresh page (sealed pages are immutable).
	tx2 := e.txm.Begin()
	_, _, err = e.rel.Insert(tx2, at, 2, payload("next"))
	if err != nil {
		t.Fatal(err)
	}
	e.txm.Commit(tx2)
	if e.rel.Blocks() != 2 {
		t.Errorf("blocks = %d, want 2 after sealing a sparse page", e.rel.Blocks())
	}
	// Sealing an empty/unopened page is a no-op.
	if _, err := e.rel.SealAppend(at, true); err != nil {
		t.Fatal(err)
	}
}

func TestGCReclaimsDeadSuffixes(t *testing.T) {
	e := newEnv(t)
	at := simclock.Time(0)
	setup := e.txm.Begin()
	vid, at, _ := e.rel.Insert(setup, at, 1, payload("v0"))
	e.txm.Commit(setup)
	// Many updates fill pages with dead predecessors.
	big := make([]byte, 1500)
	for i := 0; i < 30; i++ {
		u := e.txm.Begin()
		var err error
		at, err = e.rel.updateVID(u, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
			return big, 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.txm.Commit(u)
	}
	at, _ = e.rel.SealAppend(at, false)
	blocksBefore := e.rel.LiveBlocks()
	horizon := e.txm.Horizon()
	reclaimed, at, err := e.rel.GC(at, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed == 0 {
		t.Fatal("GC reclaimed nothing despite 30 dead versions")
	}
	if e.rel.LiveBlocks() >= blocksBefore {
		t.Errorf("live blocks %d -> %d: no space reclaimed", blocksBefore, e.rel.LiveBlocks())
	}
	// The item's current version must survive GC.
	r := e.txm.Begin()
	got, _, err := e.rel.getVID(r, at, vid)
	if err != nil || len(got) != len(big) {
		t.Errorf("entrypoint lost by GC: %v len=%d", err, len(got))
	}
	e.txm.Commit(r)
	st := e.rel.Stats()
	if st.GCDiscarded == 0 {
		t.Error("GC should have discarded dead versions")
	}
}

func TestGCRespectsActiveSnapshots(t *testing.T) {
	e := newEnv(t)
	at := simclock.Time(0)
	setup := e.txm.Begin()
	vid, at, _ := e.rel.Insert(setup, at, 1, payload("old"))
	e.txm.Commit(setup)
	oldReader := e.txm.Begin() // holds the horizon down

	big := make([]byte, 1500)
	for i := 0; i < 20; i++ {
		u := e.txm.Begin()
		at, _ = e.rel.updateVID(u, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
			return big, 1, nil
		})
		e.txm.Commit(u)
	}
	at, _ = e.rel.SealAppend(at, false)
	// Horizon pinned by oldReader: versions it can see must survive.
	_, at, err := e.rel.GC(at, e.txm.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	got, at, err := e.rel.getVID(oldReader, at, vid)
	if err != nil || string(got) != "old" {
		t.Fatalf("old snapshot lost its version after GC: %q %v", got, err)
	}
	e.txm.Commit(oldReader)
	// Now the garbage is collectible.
	_, at, err = e.rel.GC(at, e.txm.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	newReader := e.txm.Begin()
	if got, _, err := e.rel.getVID(newReader, at, vid); err != nil || len(got) != len(big) {
		t.Errorf("current version lost: %v", err)
	}
	e.txm.Commit(newReader)
}

func TestGCBlockReuse(t *testing.T) {
	e := newEnv(t)
	at := simclock.Time(0)
	setup := e.txm.Begin()
	vid, at, _ := e.rel.Insert(setup, at, 1, payload("x"))
	e.txm.Commit(setup)
	big := make([]byte, 1500)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			u := e.txm.Begin()
			at, _ = e.rel.updateVID(u, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
				return big, 1, nil
			})
			e.txm.Commit(u)
		}
		at, _ = e.rel.SealAppend(at, false)
		_, at, _ = e.rel.GC(at, e.txm.Horizon())
	}
	// With reuse, the high-water mark stays well below 3 rounds' worth.
	if e.rel.Blocks() > 12 {
		t.Errorf("high-water mark %d blocks: GC blocks not reused", e.rel.Blocks())
	}
}

func TestVMapMissPenaltyCharged(t *testing.T) {
	dev := device.NewMem(page.Size, 1<<16)
	walDev := device.NewMem(page.Size, 1<<14)
	pool := buffer.New(buffer.Config{Frames: 256, HitCost: 0}, dev)
	alloc := space.NewAllocator(dev.NumPages(), 64)
	walw := wal.NewWriter(walDev)
	txm := txn.NewManager()
	rel, _, err := New(0, Config{
		ID: 1, Name: "t", Pool: pool, Alloc: alloc, WAL: walw, Txns: txm, PKRelID: 2,
		VMapResidentBuckets: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := txm.Begin()
	at := simclock.Time(0)
	// Insert items in two different buckets (vid 0 and vid 1500 need
	// allocation up to bucket 1).
	for i := 0; i < 1500; i++ {
		_, a, err := rel.Insert(tx, at, int64(i), payload("p"))
		at = a
		if err != nil {
			t.Fatal(err)
		}
	}
	txm.Commit(tx)
	if rel.Stats().VMapMisses == 0 {
		t.Error("bucket thrashing should cause residency misses")
	}
	// The last insert left bucket 1 resident: touching bucket 0 swaps it
	// back in and costs one device page read, 100 us.
	if got := rel.vmapTouch(at, 0).Sub(at); got != 100*simclock.Microsecond {
		t.Errorf("a VIDmap miss charged %v, want 100us", got)
	}
	if got := rel.vmapTouch(at, 0).Sub(at); got != 0 {
		t.Errorf("a resident bucket charged %v", got)
	}
}

var _ = tuple.SIASHeaderSize // keep import if assertions change

// TestCorruptAppendPageFailsTheAppend corrupts the free-space bounds of the
// open append page. The next insert must fail with page.ErrCorrupt and leave
// the page open where it is, not seal it and carry on on a fresh block as if
// it were merely full.
func TestCorruptAppendPageFailsTheAppend(t *testing.T) {
	e := newEnv(t)
	tx := e.txm.Begin()
	defer e.txm.Abort(tx)
	if _, _, err := e.rel.Insert(tx, 0, 1, payload("first")); err != nil {
		t.Fatal(err)
	}
	block := e.rel.appendBlock
	f, _, err := e.rel.getPage(0, block, false)
	if err != nil {
		t.Fatal(err)
	}
	f.Lock()
	binary.LittleEndian.PutUint16(f.Data[6:], page.HeaderSize) // upper below lower
	f.Unlock()
	e.pool.Release(f, true)
	sealed := e.rel.Stats().PagesSealed

	if _, _, err := e.rel.Insert(tx, 0, 2, payload("second")); !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("insert onto a corrupt append page: %v, want page.ErrCorrupt", err)
	}
	if e.rel.appendBlock != block || !e.rel.appendOpen || e.rel.Stats().PagesSealed != sealed {
		t.Errorf("append page moved from block %d to %d (open %v, %d sealed, was %d): the corrupt page was abandoned",
			block, e.rel.appendBlock, e.rel.appendOpen, e.rel.Stats().PagesSealed, sealed)
	}
}
