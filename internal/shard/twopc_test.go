package shard_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// shardDevs keeps a shard's device handles so tests can "crash" (discard the
// engine, losing everything unflushed) and recover from the surviving bytes.
type shardDevs struct {
	data, wal device.BlockDevice
}

func newShardDevs() shardDevs {
	return shardDevs{
		data: device.NewMem(page.Size, 1<<14),
		wal:  device.NewMem(page.Size, 1<<13),
	}
}

func openShardOn(t *testing.T, d shardDevs) (shard.Shard, *engine.DB) {
	t.Helper()
	opts := engine.DefaultOptions(d.data, d.wal)
	opts.PoolFrames = 512
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Shard{Facade: engine.NewFacade(db), Table: tab}, db
}

// recoverShards reopens every shard from its devices the way siasserver
// restarts a fleet: open + bootstrap schema everywhere, collect each shard's
// coordinator decisions, install the cross-shard resolver, then recover.
func recoverShards(t *testing.T, devs []shardDevs) ([]shard.Shard, []*engine.DB) {
	t.Helper()
	dbs := make([]*engine.DB, len(devs))
	shards := make([]shard.Shard, len(devs))
	for i, d := range devs {
		opts := engine.DefaultOptions(d.data, d.wal)
		opts.PoolFrames = 512
		opts.Recover = true
		db, err := engine.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
		shards[i] = shard.Shard{Facade: engine.NewFacade(db), Table: tab}
	}
	decs := make([]map[uint64]bool, len(dbs))
	for i, db := range dbs {
		decs[i] = db.Decisions()
	}
	for _, db := range dbs {
		db.SetInDoubtResolver(func(gid uint64, coord uint32) (bool, bool) {
			if int(coord) >= len(decs) {
				return false, false
			}
			c, ok := decs[coord][gid]
			return c, ok
		})
	}
	for _, db := range dbs {
		if _, err := db.Recover(0); err != nil {
			t.Fatal(err)
		}
	}
	return shards, dbs
}

// keysFor returns one key homed on each of n shards.
func keysFor(t *testing.T, n int) []int64 {
	t.Helper()
	keys := make([]int64, n)
	seen := make([]bool, n)
	found := 0
	for k := int64(1); found < n; k++ {
		if i := shard.Of(k, n); !seen[i] {
			seen[i] = true
			keys[i] = k
			found++
		}
	}
	return keys
}

// tearDecideFlush leaves the coordinator's log the way a decide flush torn
// between its two records does: the commit decision durable, the
// coordinator's own outcome record behind it lost. Since Decide writes both
// in one flush this is the only way a decided coordinator is still in doubt.
func tearDecideFlush(t *testing.T, db *engine.DB, coordTx *txn.Tx, gid uint64) {
	t.Helper()
	w := db.WAL()
	lsn := w.Append(&wal.Record{Type: wal.RecDecide, Tx: coordTx.ID, Aux: gid, Data: wal.EncodeDecideData(true)})
	if _, err := w.Flush(0, lsn); err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, s shard.Shard, key int64) ([]byte, error) {
	t.Helper()
	tx := s.Facade.Begin()
	defer s.Facade.Abort(tx)
	r, err := s.Facade.Get(s.Table, tx, key)
	if err != nil {
		return nil, err
	}
	return r[1].([]byte), nil
}

// TestRecoveryPresumedAbort: both participants prepared, no decision record
// survived — recovery must abort the transaction on every shard.
func TestRecoveryPresumedAbort(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, _ := openShardOn(t, devs[0])
	s1, _ := openShardOn(t, devs[1])
	keys := keysFor(t, 2)

	tx0 := s0.Facade.Begin()
	tx1 := s1.Facade.Begin()
	if err := s0.Facade.Insert(s0.Table, tx0, row(keys[0], []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Insert(s1.Table, tx1, row(keys[1], []byte("b"))); err != nil {
		t.Fatal(err)
	}
	gid := shard.GlobalID(0, uint64(tx0.ID))
	if err := s0.Facade.Prepare(tx0, gid, 0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Prepare(tx1, gid, 0); err != nil {
		t.Fatal(err)
	}
	// Crash here: no decision was ever logged.

	shards, dbs := recoverShards(t, devs)
	for i, s := range shards {
		if _, err := mustGet(t, s, keys[i]); err == nil {
			t.Errorf("shard %d: prepared-but-undecided write visible after recovery", i)
		}
		st := dbs[i].Stats()
		if st.InDoubtAborts != 1 || st.InDoubtCommits != 0 {
			t.Errorf("shard %d: in-doubt resolution = %d commits / %d aborts, want 0/1",
				i, st.InDoubtCommits, st.InDoubtAborts)
		}
	}
}

// TestRecoveryDecidedCommitLaggingParticipant: the commit decision is durable
// in the coordinator's log but neither outcome record is — the coordinator's
// was torn off the decide flush, the lagging participant crashed before its
// own — recovery must resolve both to COMMIT through the coordinator's
// decision log, making the write visible on both shards.
func TestRecoveryDecidedCommitLaggingParticipant(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, db0 := openShardOn(t, devs[0])
	s1, _ := openShardOn(t, devs[1])
	keys := keysFor(t, 2)

	tx0 := s0.Facade.Begin()
	tx1 := s1.Facade.Begin()
	if err := s0.Facade.Insert(s0.Table, tx0, row(keys[0], []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Insert(s1.Table, tx1, row(keys[1], []byte("b"))); err != nil {
		t.Fatal(err)
	}
	gid := shard.GlobalID(0, uint64(tx0.ID))
	if err := s0.Facade.Prepare(tx0, gid, 0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Prepare(tx1, gid, 0); err != nil {
		t.Fatal(err)
	}
	// The commit point: decision durable on the coordinator.
	tearDecideFlush(t, db0, tx0, gid)
	// Crash before either participant logged a durable outcome record.

	shards, dbs := recoverShards(t, devs)
	for i, s := range shards {
		v, err := mustGet(t, s, keys[i])
		if err != nil {
			t.Fatalf("shard %d: decided-commit write lost after recovery: %v", i, err)
		}
		want := []byte{"a"[0], "b"[0]}[i : i+1]
		if string(v) != string(want) {
			t.Errorf("shard %d: value %q, want %q", i, v, want)
		}
		st := dbs[i].Stats()
		if st.InDoubtCommits != 1 || st.InDoubtAborts != 0 {
			t.Errorf("shard %d: in-doubt resolution = %d commits / %d aborts, want 1/0",
				i, st.InDoubtCommits, st.InDoubtAborts)
		}
	}
}

// TestRecoveryOutcomeReplayIdempotent: once outcome records ARE durable, a
// further recovery must not count the transaction as in-doubt again, and the
// state must be stable across repeated replays of the same log.
func TestRecoveryOutcomeReplayIdempotent(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, db0 := openShardOn(t, devs[0])
	s1, _ := openShardOn(t, devs[1])
	keys := keysFor(t, 2)

	tx0 := s0.Facade.Begin()
	tx1 := s1.Facade.Begin()
	if err := s0.Facade.Insert(s0.Table, tx0, row(keys[0], []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Insert(s1.Table, tx1, row(keys[1], []byte("b"))); err != nil {
		t.Fatal(err)
	}
	gid := shard.GlobalID(0, uint64(tx0.ID))
	if err := s0.Facade.Prepare(tx0, gid, 0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Prepare(tx1, gid, 0); err != nil {
		t.Fatal(err)
	}
	tearDecideFlush(t, db0, tx0, gid)

	// First recovery resolves the in-doubt participants and appends their
	// outcome records; checkpointing makes those durable.
	shards, dbs := recoverShards(t, devs)
	for i := range shards {
		if st := dbs[i].Stats(); st.InDoubtCommits != 1 {
			t.Fatalf("first recovery shard %d: InDoubtCommits = %d, want 1", i, st.InDoubtCommits)
		}
		if err := shards[i].Facade.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// Second recovery replays prepare + outcome: nothing is in-doubt, the
	// write survives, and re-replaying the outcome record is a no-op.
	shards, dbs = recoverShards(t, devs)
	for i, s := range shards {
		if _, err := mustGet(t, s, keys[i]); err != nil {
			t.Fatalf("shard %d: committed write lost on re-replay: %v", i, err)
		}
		st := dbs[i].Stats()
		if st.InDoubtCommits != 0 || st.InDoubtAborts != 0 {
			t.Errorf("shard %d: re-replay counted in-doubt resolution (%d/%d), want 0/0",
				i, st.InDoubtCommits, st.InDoubtAborts)
		}
	}
}

// TestRecoveryGidCollisionAcrossCoordinators: every shard's txn-id allocator
// starts at 1, so two coordinators routinely issue sub-transactions with the
// same LOCAL id. The gid folds the coordinator's shard index into its top
// bits (shard.GlobalID) precisely so such transactions can never share a gid
// — a participant that itself coordinated an unrelated transaction must not
// resolve an in-doubt prepare from its own, colliding decision record. Here
// shard 1 holds a COMMIT decision for a transaction it coordinated while it
// is also a participant of an UNDECIDED transaction coordinated by shard 0
// whose coordinator local id matches: recovery must presume abort for the
// latter on every shard, or the fleet tears exactly the way 2PC exists to
// prevent.
func TestRecoveryGidCollisionAcrossCoordinators(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, _ := openShardOn(t, devs[0])
	s1, _ := openShardOn(t, devs[1])
	keys := keysFor(t, 2)
	// A second key homed on shard 1 for the cross-shard transaction.
	k1b := keys[1]
	for k := keys[1] + 1; ; k++ {
		if shard.Of(k, 2) == 1 {
			k1b = k
			break
		}
	}

	// Shard 1 coordinates and durably commits its own transaction: its
	// decision log now holds a COMMIT under gidOwn.
	tx1a := s1.Facade.Begin()
	if err := s1.Facade.Insert(s1.Table, tx1a, row(keys[1], []byte("own"))); err != nil {
		t.Fatal(err)
	}
	gidOwn := shard.GlobalID(1, uint64(tx1a.ID))
	if err := s1.Facade.Decide(tx1a, gidOwn); err != nil {
		t.Fatal(err)
	}

	// A cross-shard transaction coordinated by shard 0 whose coordinator
	// sub-transaction carries the SAME local id (the fresh allocators run in
	// lockstep). Both participants prepare; the decision never lands.
	tx0 := s0.Facade.Begin()
	tx1 := s1.Facade.Begin()
	if tx0.ID != tx1a.ID {
		t.Fatalf("allocators out of lockstep (%d vs %d): the collision under test is gone", tx0.ID, tx1a.ID)
	}
	if err := s0.Facade.Insert(s0.Table, tx0, row(keys[0], []byte("torn"))); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Insert(s1.Table, tx1, row(k1b, []byte("torn"))); err != nil {
		t.Fatal(err)
	}
	gid := shard.GlobalID(0, uint64(tx0.ID))
	if err := s0.Facade.Prepare(tx0, gid, 0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Facade.Prepare(tx1, gid, 0); err != nil {
		t.Fatal(err)
	}
	// Crash here: no decision for gid exists in any shard's log.

	shards, dbs := recoverShards(t, devs)
	if v, err := mustGet(t, shards[1], keys[1]); err != nil || string(v) != "own" {
		t.Errorf("shard 1: own coordinated commit lost after recovery (v=%q, err=%v)", v, err)
	}
	if _, err := mustGet(t, shards[0], keys[0]); err == nil {
		t.Error("shard 0: undecided cross-shard write visible after recovery")
	}
	if _, err := mustGet(t, shards[1], k1b); err == nil {
		t.Error("shard 1: undecided cross-shard write resolved from a colliding decision record")
	}
	for i := range dbs {
		st := dbs[i].Stats()
		if st.InDoubtAborts != 1 || st.InDoubtCommits != 0 {
			t.Errorf("shard %d: in-doubt resolution = %d commits / %d aborts, want 0/1",
				i, st.InDoubtCommits, st.InDoubtAborts)
		}
	}
}

// TestDecideFlushFailureInDoubt: when the coordinator cannot force the
// commit-decision record, the outcome is genuinely unknown — a torn flush
// could still have made the decision durable, so unilaterally aborting the
// participants could disagree with what recovery later reads back. The
// router must surface shard.ErrInDoubt, leave every sub-transaction undecided
// (writes invisible on all shards), and count the transaction as in-doubt
// rather than aborted; restart recovery then resolves it from the surviving
// log — here the decision never reached the device, so presumed abort: the
// participant's PREPARE is an in-doubt abort, the coordinator (which prepared
// nothing) an ordinary rollback.
func TestDecideFlushFailureInDoubt(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}

	// Shard 0 is the coordinator (lowest written index). Its WAL device fails
	// every write issued once the commit starts — and the first write the
	// commit asks of the coordinator is its decide flush.
	var committing atomic.Bool
	s0, _ := failWALFrom(t, devs[0], func(*engine.DB) bool { return committing.Load() })
	s1, _ := openShardOn(t, devs[1])
	r, err := shard.NewRouter([]shard.Shard{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(t, 2)

	tx := r.Begin()
	if err := tx.Insert(row(keys[0], []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(row(keys[1], []byte("x"))); err != nil {
		t.Fatal(err)
	}
	committing.Store(true)
	err = tx.Commit()
	if !errors.Is(err, shard.ErrInDoubt) {
		t.Fatalf("commit error = %v, want errors.Is(err, shard.ErrInDoubt)", err)
	}
	rs := r.RouterStats()
	if rs.TwoPCInDoubt != 1 || rs.TwoPCCommits != 0 || rs.TwoPCAbortPrepare != 0 {
		t.Errorf("router counters %+v, want exactly one in-doubt outcome", rs)
	}
	// Nothing is decided: neither shard's write is visible.
	for i, s := range []shard.Shard{s0, s1} {
		if _, err := mustGet(t, s, keys[i]); err == nil {
			t.Errorf("shard %d: in-doubt write visible before recovery", i)
		}
	}

	// Restart from the surviving bytes: the decision never reached the
	// device, so recovery presumes abort everywhere.
	shards, dbs := recoverShards(t, devs)
	for i, s := range shards {
		if _, err := mustGet(t, s, keys[i]); err == nil {
			t.Errorf("shard %d: in-doubt write visible after recovery", i)
		}
		st := dbs[i].Stats()
		if want := int64(i); st.InDoubtAborts != want || st.InDoubtCommits != 0 {
			t.Errorf("shard %d: in-doubt resolution = %d commits / %d aborts, want 0/%d",
				i, st.InDoubtCommits, st.InDoubtAborts, want)
		}
	}
}

// TestTornDecisionCommitsCoordinator: the coordinator's decide flush carries
// its heap records, the decision and its own RecCommit; a tear that keeps the
// decision and loses the RecCommit behind it must still commit the
// coordinator's half. The coordinator never logged a PREPARE, so only redo's
// rule that a commit decision prepares its coordinator keeps the transaction
// whole: without it recovery would roll the coordinator back as an ordinary
// in-flight writer while the participant commits from the decision. The
// crash comes at acknowledgement, before any later flush carried the
// participant's outcome record (its log takes no write after the prepare),
// so both halves are in doubt and both commit.
func TestTornDecisionCommitsCoordinator(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, _ := openShardOn(t, devs[0])
	s1, _ := failWALFrom(t, devs[1], func(db *engine.DB) bool { return db.Stats().Prepares > 0 })
	r, err := shard.NewRouter([]shard.Shard{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(t, 2)
	tx := r.Begin()
	for _, k := range keys {
		if err := tx.Insert(row(k, []byte("both"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Tear the coordinator's log at its last record, the RecCommit the
	// decide flush put behind the decision.
	var decide, commit wal.LSN
	if _, err := wal.Scan(devs[0].wal, func(lsn wal.LSN, rec wal.Record) error {
		switch rec.Type {
		case wal.RecDecide:
			decide = lsn
		case wal.RecCommit:
			commit = lsn
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if decide == 0 || commit < decide {
		t.Fatalf("coordinator log has decide at %d, last commit at %d: no RecCommit behind the decision", decide, commit)
	}
	zeroFrom(t, devs[0].wal, commit)
	if got := recordsSince(t, devs[0].wal, decide); len(got) != 1 || got[0] != wal.RecDecide {
		t.Fatalf("torn coordinator log ends with %v, want just the decision", got)
	}

	shards, dbs := recoverShards(t, devs)
	for i, s := range shards {
		if v, err := mustGet(t, s, keys[i]); err != nil || string(v) != "both" {
			t.Errorf("shard %d after recovery: value %q, %v; want both halves visible", i, v, err)
		}
	}
	if st := dbs[0].Stats(); st.InDoubtCommits != 1 || st.InDoubtAborts != 0 {
		t.Errorf("coordinator: in-doubt resolution = %d commits / %d aborts, want 1/0", st.InDoubtCommits, st.InDoubtAborts)
	}
	if st := dbs[1].Stats(); st.InDoubtCommits != 1 || st.InDoubtAborts != 0 {
		t.Errorf("participant: in-doubt resolution = %d commits / %d aborts, want 1/0 (its outcome never reached the device)", st.InDoubtCommits, st.InDoubtAborts)
	}
}

// zeroFrom zeroes the log on dev from byte offset off to its end, as if the
// flush that wrote those bytes had been torn at off.
func zeroFrom(t *testing.T, dev device.BlockDevice, off wal.LSN) {
	t.Helper()
	ps := int64(dev.PageSize())
	buf, zero := make([]byte, ps), make([]byte, ps)
	for p := int64(off) / ps; p < dev.NumPages(); p++ {
		if _, err := dev.ReadPage(0, p, buf); err != nil {
			t.Fatal(err)
		}
		from := max(int64(off)-p*ps, 0)
		if from == 0 && bytes.Equal(buf, zero) {
			return // the log ended before this page
		}
		clear(buf[from:])
		if _, err := dev.WritePage(0, p, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleShardFastPathNoTwoPCRecords pins the fast-path guarantee: a
// transaction that touches one shard commits with the plain group-commit
// flush and logs NO 2PC records — counted record by record in the WAL.
func TestSingleShardFastPathNoTwoPCRecords(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, _ := openShardOn(t, devs[0])
	s1, _ := openShardOn(t, devs[1])
	r, err := shard.NewRouter([]shard.Shard{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(t, 2)

	tx := r.Begin()
	if err := tx.Insert(row(keys[0], []byte("solo"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	counts := map[wal.RecType]int{}
	if _, err := wal.Scan(devs[0].wal, func(_ wal.LSN, rec wal.Record) error {
		counts[rec.Type]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if counts[wal.RecPrepare] != 0 || counts[wal.RecDecide] != 0 {
		t.Errorf("single-shard commit logged 2PC records: %d prepares, %d decides",
			counts[wal.RecPrepare], counts[wal.RecDecide])
	}
	if counts[wal.RecCommit] != 1 {
		t.Errorf("single-shard commit logged %d commit records, want exactly 1", counts[wal.RecCommit])
	}
	if counts[wal.RecHeapInsert] != 1 {
		t.Errorf("single-shard commit logged %d heap inserts, want exactly 1", counts[wal.RecHeapInsert])
	}
	if st := s0.Facade.Stats(); st.Prepares != 0 {
		t.Errorf("fast path forced %d prepares, want 0", st.Prepares)
	}
	if rs := r.RouterStats(); rs.CrossCommits != 0 || rs.TwoPCCommits != 0 {
		t.Errorf("fast path counted as cross-shard (%+v)", rs)
	}

	// Contrast: the same router's cross-shard commit DOES log the protocol —
	// one prepare per participant other than the coordinator, one decision
	// at the coordinator.
	tx = r.Begin()
	if err := tx.Update(keys[0], func(old tuple.Row) (tuple.Row, error) {
		out := append(tuple.Row(nil), old...)
		out[1] = []byte("both")
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(row(keys[1], []byte("both"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	counts = map[wal.RecType]int{}
	if _, err := wal.Scan(devs[0].wal, func(_ wal.LSN, rec wal.Record) error {
		counts[rec.Type]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if counts[wal.RecPrepare] != 0 || counts[wal.RecDecide] != 1 {
		t.Errorf("cross-shard commit logged %d prepares / %d decides on the coordinator, want 0/1",
			counts[wal.RecPrepare], counts[wal.RecDecide])
	}
	if rs := r.RouterStats(); rs.CrossCommits != 1 || rs.TwoPCCommits != 1 {
		t.Errorf("cross-shard commit counters (%+v), want CrossCommits=1 TwoPCCommits=1", rs)
	}
}
