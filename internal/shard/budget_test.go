package shard_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/wal"
)

// logState is everything a commit can leave in one shard's log: the stream
// end, the pages Flush wrote, and the 2PC records forced.
type logState struct {
	next     wal.LSN
	writes   int64
	prepares int64
}

func logStateOf(db *engine.DB) logState {
	return logState{next: db.WAL().NextLSN(), writes: db.WAL().PageWrites(), prepares: db.Stats().Prepares}
}

// recordsSince lists the types of the records in dev's log at or after from.
func recordsSince(t *testing.T, dev device.BlockDevice, from wal.LSN) []wal.RecType {
	t.Helper()
	var types []wal.RecType
	if _, err := wal.Scan(dev, func(lsn wal.LSN, rec wal.Record) error {
		if lsn >= from {
			types = append(types, rec.Type)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

func setValue(v string) func(tuple.Row) (tuple.Row, error) {
	return func(old tuple.Row) (tuple.Row, error) {
		out := append(tuple.Row(nil), old...)
		out[1] = []byte(v)
		return out, nil
	}
}

// TestCommitLogBudget pins, record by record and flush by flush, what each
// shape of commit writes: a transaction that only read writes nothing on any
// shard, one that wrote on a single shard takes that shard's one-flush fast
// path whatever it read elsewhere, and one that wrote on two shards runs 2PC
// with n = 2 forced flushes before the acknowledgement — the participant's
// prepare and the coordinator's decide flush (its heap records, the decision
// and its outcome) — and the participant's outcome record left to the lazy
// flush, a third.
func TestCommitLogBudget(t *testing.T) {
	devs := []shardDevs{newShardDevs(), newShardDevs()}
	s0, db0 := openShardOn(t, devs[0])
	s1, db1, release := holdWALAfterPrepare(t, devs[1])
	dbs := []*engine.DB{db0, db1}
	r, err := shard.NewRouter([]shard.Shard{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(t, 2)
	// Seed both keys one shard at a time, so every extent the updates below
	// need is allocated (and its record logged) before anything is counted.
	for _, k := range keys {
		tx := r.Begin()
		if err := tx.Insert(row(k, []byte("seed"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	marks := func() []logState { return []logState{logStateOf(db0), logStateOf(db1)} }
	routerAt := r.RouterStats()

	t.Run("read of both shards", func(t *testing.T) {
		before := marks()
		for _, finish := range []func(*shard.Txn) error{(*shard.Txn).Commit, (*shard.Txn).Abort} {
			tx := r.Begin()
			for _, k := range keys {
				if _, err := tx.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := finish(tx); err != nil {
				t.Fatal(err)
			}
		}
		if after := marks(); !reflect.DeepEqual(after, before) {
			t.Errorf("reading both shards moved a log: %+v -> %+v", before, after)
		}
		if rs := r.RouterStats(); rs != routerAt {
			t.Errorf("reading both shards counted as coordination: %+v -> %+v", routerAt, rs)
		}
		for i, db := range dbs {
			if st := db.Stats(); st.ReadOnlyCommits != 1 || st.Aborts != 1 {
				t.Errorf("shard %d: %d read-only commits, %d aborts, want 1 and 1", i, st.ReadOnlyCommits, st.Aborts)
			}
		}
	})

	t.Run("write on A, read on B", func(t *testing.T) {
		before := marks()
		flushes := db0.Stats().CommitFlushes
		tx := r.Begin()
		if _, err := tx.Get(keys[1]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(keys[0], setValue("solo")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := marks()
		if after[1] != before[1] {
			t.Errorf("the shard that was only read logged: %+v -> %+v", before[1], after[1])
		}
		want := []wal.RecType{wal.RecHeapInsert, wal.RecCommit}
		if got := recordsSince(t, devs[0].wal, before[0].next); !reflect.DeepEqual(got, want) {
			t.Errorf("written shard logged %v, want the single-shard sequence %v", got, want)
		}
		if d := after[0].writes - before[0].writes; d != 1 || db0.Stats().CommitFlushes-flushes != 1 {
			t.Errorf("written shard: %d page writes, %d commit flushes, want 1 and 1", d, db0.Stats().CommitFlushes-flushes)
		}
		if after[0].prepares != 0 {
			t.Errorf("fast path forced %d prepares", after[0].prepares)
		}
		if rs := r.RouterStats(); rs != routerAt {
			t.Errorf("one written shard counted as coordination: %+v -> %+v", routerAt, rs)
		}
	})

	t.Run("write on both", func(t *testing.T) {
		before := marks()
		flushes := func() (n int64) {
			for _, db := range dbs {
				n += db.Stats().CommitFlushes
			}
			return n
		}
		flushesBefore := flushes()
		tx := r.Begin()
		for _, k := range keys {
			if err := tx.Update(k, setValue("both")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := marks()
		wantCoord := []wal.RecType{wal.RecHeapInsert, wal.RecDecide, wal.RecCommit}
		if got := recordsSince(t, devs[0].wal, before[0].next); !reflect.DeepEqual(got, wantCoord) {
			t.Errorf("coordinator logged %v, want %v", got, wantCoord)
		}
		// Acknowledged, with the lazy flush held: the participant's device has
		// its prepare and not its outcome.
		wantPart := []wal.RecType{wal.RecHeapInsert, wal.RecPrepare}
		if got := recordsSince(t, devs[1].wal, before[1].next); !reflect.DeepEqual(got, wantPart) {
			t.Errorf("participant's device holds %v at acknowledgement, want %v", got, wantPart)
		}
		// One flush per shard on the acknowledgement path: the decide flush on
		// the coordinator (its heap records and its outcome ride it), the
		// prepare on the participant. Every flush here fits the log's tail
		// page, so page writes count flushes.
		for i := range dbs {
			if d := after[i].writes - before[i].writes; d != 1 {
				t.Errorf("shard %d: %d log flushes before the acknowledgement of a 2-shard commit, want 1 (2 in all)", i, d)
			}
			if d := after[i].prepares - before[i].prepares; d != int64(i) {
				t.Errorf("shard %d: %d prepares, want %d", i, d, i)
			}
		}
		// Both forced flushes are commit flushes, so the engine's group-commit
		// ratios see a cross-shard commit's log writes.
		if d := flushes() - flushesBefore; d != 2 {
			t.Errorf("the shards count %d commit flushes for a 2-shard commit, want 2 (prepare + decide)", d)
		}
		// Let the lazy flush land: it carries the outcome in one more flush.
		release()
		waitDurable(t, db1)
		if d := flushes() - flushesBefore; d != 2 {
			t.Errorf("the lazy outcome flush counted as a commit flush: %d, want 2", d)
		}
		wantPart = append(wantPart, wal.RecCommit)
		if got := recordsSince(t, devs[1].wal, before[1].next); !reflect.DeepEqual(got, wantPart) {
			t.Errorf("participant's device holds %v after the lazy flush, want %v", got, wantPart)
		}
		if d := logStateOf(db1).writes - before[1].writes; d != 2 {
			t.Errorf("participant: %d log flushes once the lazy flush fired, want 2 (prepare + outcome)", d)
		}
		rs := r.RouterStats()
		if rs.CrossCommits != routerAt.CrossCommits+1 || rs.TwoPCCommits != routerAt.TwoPCCommits+1 {
			t.Errorf("router counters %+v, want one more cross-shard and one more 2PC commit than %+v", rs, routerAt)
		}
		for i, k := range keys {
			if v, err := mustGet(t, r.Shard(i), k); err != nil || string(v) != "both" {
				t.Errorf("shard %d: value %q, %v after the 2-shard commit", i, v, err)
			}
		}
	})
}

// hookWAL opens a shard whose WAL device calls hook with the shard's engine
// before every write; an error fails the write without touching the device.
func hookWAL(t *testing.T, d shardDevs, hook func(*engine.DB) error) (shard.Shard, *engine.DB) {
	t.Helper()
	wrapped := device.NewWrap(d.wal)
	s, db := openShardOn(t, shardDevs{data: d.data, wal: wrapped})
	wrapped.SetWriteHook(func(int64) error { return hook(db) })
	return s, db
}

// failWALFrom opens a shard whose WAL device fails every write once dead
// reports true of the shard, as if the process had died before the write
// reached the device.
func failWALFrom(t *testing.T, d shardDevs, dead func(*engine.DB) bool) (shard.Shard, *engine.DB) {
	t.Helper()
	return hookWAL(t, d, func(db *engine.DB) error {
		if dead(db) {
			return errors.New("injected WAL write failure")
		}
		return nil
	})
}

// holdWALAfterPrepare opens a shard whose WAL device parks every write after
// the shard's first prepare until release is called, so a test can look at
// what a cross-shard commit's acknowledgement path forced before the lazy
// outcome flush lands. A write parks for 5s at most: a commit that waits for
// it is slow and then fails the test's record checks, instead of hanging.
func holdWALAfterPrepare(t *testing.T, d shardDevs) (s shard.Shard, db *engine.DB, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	s, db = hookWAL(t, d, func(db *engine.DB) error {
		if db.Stats().Prepares > 0 {
			select {
			case <-gate:
			case <-time.After(5 * time.Second):
			}
		}
		return nil
	})
	return s, db, release
}

// waitDurable waits up to a second for everything db has logged to be
// durable.
func waitDurable(t *testing.T, db *engine.DB) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); db.WAL().Durable() != db.WAL().NextLSN(); {
		if time.Now().After(deadline) {
			t.Fatalf("log durable through %d of %d after 1s", db.WAL().Durable(), db.WAL().NextLSN())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashAroundDecideWithReadOnlyShard crashes a transaction that wrote on
// shards 0 and 1 and only read shard 2, once at the coordinator's decide
// flush and once right after it. Either way the shard that was only read took
// no part: its log and its in-doubt counters are untouched. Without the
// decide flush the commit is in doubt and recovery presumes abort: the
// participant's PREPARE is an in-doubt abort, the coordinator (which prepared
// nothing) an ordinary rollback. After it the transaction is committed, so
// Commit reports success even though the participant's log takes no more
// writes; the coordinator's outcome is already durable (it rode the decide
// flush), so only the other participant is in doubt, and it commits.
func TestCrashAroundDecideWithReadOnlyShard(t *testing.T) {
	var committing atomic.Bool
	for _, tc := range []struct {
		name               string
		failOn             int                   // shard whose WAL dies...
		dead               func(*engine.DB) bool // ...once this holds
		wantErr            error
		visible            bool
		inDoubtC, inDoubtA [3]int64
	}{
		{name: "before the decide flush", failOn: 0, wantErr: shard.ErrInDoubt,
			dead:    func(*engine.DB) bool { return committing.Load() },
			visible: false, inDoubtA: [3]int64{0, 1, 0}},
		{name: "after the decide flush", failOn: 1,
			dead:    func(db *engine.DB) bool { return db.Stats().Prepares > 0 },
			visible: true, inDoubtC: [3]int64{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			committing.Store(false)
			devs := []shardDevs{newShardDevs(), newShardDevs(), newShardDevs()}
			shards := make([]shard.Shard, 3)
			var reader *engine.DB
			for i := range shards {
				if i == tc.failOn {
					shards[i], _ = failWALFrom(t, devs[i], tc.dead)
				} else {
					var db *engine.DB
					shards[i], db = openShardOn(t, devs[i])
					if i == 2 {
						reader = db
					}
				}
			}
			r, err := shard.NewRouter(shards)
			if err != nil {
				t.Fatal(err)
			}
			keys := keysFor(t, 3)
			for _, k := range keys {
				tx := r.Begin()
				if err := tx.Insert(row(k, []byte("old"))); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// Make the seed durable on the reader too, then freeze its log.
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := logStateOf(reader)
			records := len(recordsSince(t, devs[2].wal, 0))

			tx := r.Begin()
			if _, err := tx.Get(keys[2]); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys[:2] {
				if err := tx.Update(k, setValue("new")); err != nil {
					t.Fatal(err)
				}
			}
			committing.Store(true)
			if err := tx.Commit(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("commit error = %v, want %v", err, tc.wantErr)
			}
			if got := logStateOf(reader); got != before {
				t.Errorf("read-only shard's log moved during the commit: %+v -> %+v", before, got)
			}
			if got := len(recordsSince(t, devs[2].wal, 0)); got != records {
				t.Errorf("read-only shard's log holds %d records, %d before the commit", got, records)
			}

			// Crash: recover every shard from the bytes that reached its devices.
			recovered, dbs := recoverShards(t, devs)
			for i, db := range dbs {
				st := db.Stats()
				if st.InDoubtCommits != tc.inDoubtC[i] || st.InDoubtAborts != tc.inDoubtA[i] {
					t.Errorf("shard %d: in-doubt resolution = %d commits / %d aborts, want %d/%d",
						i, st.InDoubtCommits, st.InDoubtAborts, tc.inDoubtC[i], tc.inDoubtA[i])
				}
			}
			want := "old"
			if tc.visible {
				want = "new"
			}
			for i, k := range keys[:2] {
				if v, err := mustGet(t, recovered[i], k); err != nil || string(v) != want {
					t.Errorf("shard %d after recovery: value %q, %v; want %q", i, v, err, want)
				}
			}
			if v, err := mustGet(t, recovered[2], keys[2]); err != nil || string(v) != "old" {
				t.Errorf("read-only shard after recovery: value %q, %v", v, err)
			}
		})
	}
}

// TestThreeWriterCommitFlushBudget: n written shards cost n-1 prepares and
// one decide — n forced flushes — before the acknowledgement, the read-only
// fourth shard none; the n-1 outcome records take n-1 more once flushed.
func TestThreeWriterCommitFlushBudget(t *testing.T) {
	const n = 4
	devs := make([]shardDevs, n)
	shards := make([]shard.Shard, n)
	dbs := make([]*engine.DB, n)
	releases := make([]func(), n)
	for i := range devs {
		devs[i] = newShardDevs()
		if i >= 2 { // the participants other than the coordinator
			shards[i], dbs[i], releases[i] = holdWALAfterPrepare(t, devs[i])
		} else {
			shards[i], dbs[i] = openShardOn(t, devs[i])
		}
	}
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(t, n)
	for _, k := range keys {
		tx := r.Begin()
		if err := tx.Insert(row(k, []byte("seed"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	before := make([]logState, n)
	for i, db := range dbs {
		before[i] = logStateOf(db)
	}
	// Shard 0 is only read, so the coordinator is shard 1: the lowest WRITTEN.
	tx := r.Begin()
	if _, err := tx.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[1:] {
		if err := tx.Update(k, setValue("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// logged checks every shard's device against what the commit should have
	// left there, and returns the log flushes it took on all of them.
	logged := func(when string, participant []wal.RecType) (flushes int64) {
		t.Helper()
		for i, db := range dbs {
			flushes += logStateOf(db).writes - before[i].writes
			got := fmt.Sprint(recordsSince(t, devs[i].wal, before[i].next))
			want := fmt.Sprint(participant)
			switch i {
			case 0:
				want = fmt.Sprint([]wal.RecType(nil))
			case 1:
				want = fmt.Sprint([]wal.RecType{wal.RecHeapInsert, wal.RecDecide, wal.RecCommit})
			}
			if got != want {
				t.Errorf("%s: shard %d's device holds %s, want %s", when, i, got, want)
			}
		}
		return flushes
	}
	const writers = n - 1
	if f := logged("at acknowledgement", []wal.RecType{wal.RecHeapInsert, wal.RecPrepare}); f != writers {
		t.Errorf("%d log flushes before acknowledging a commit that wrote on %d shards, want %d", f, writers, writers)
	}
	for i := 2; i < n; i++ {
		releases[i]()
		if err := shards[i].Facade.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	if f := logged("after FlushWAL", []wal.RecType{wal.RecHeapInsert, wal.RecPrepare, wal.RecCommit}); f != 2*writers-1 {
		t.Errorf("%d log flushes once the outcome records are durable, want %d", f, 2*writers-1)
	}
}

// TestConcurrentOutcomesAllReachTheLog runs cross-shard commits from many
// goroutines at once (run under -race), so participant outcome records are
// appended while other commits' prepares and the lazy flushes are writing the
// same logs. Once the shards go idle every participant's log holds exactly
// one outcome record per prepare, all durable.
func TestConcurrentOutcomesAllReachTheLog(t *testing.T) {
	const n, workers, perWorker = 3, 8, 25
	devs := make([]shardDevs, n)
	shards := make([]shard.Shard, n)
	dbs := make([]*engine.DB, n)
	for i := range devs {
		devs[i] = newShardDevs()
		shards[i], dbs[i] = openShardOn(t, devs[i])
	}
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	var keys [n][]int64
	for k := int64(1); ; k++ {
		s := shard.Of(k, n)
		keys[s] = append(keys[s], k)
		if len(keys[0]) >= workers*perWorker && len(keys[1]) >= workers*perWorker && len(keys[2]) >= workers*perWorker {
			break
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				tx := r.Begin()
				for s := range keys {
					if err := tx.Insert(row(keys[s][i], []byte("c"))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < n; i++ {
		waitDurable(t, dbs[i])
		counts := map[wal.RecType]int{}
		for _, rt := range recordsSince(t, devs[i].wal, 0) {
			counts[rt]++
		}
		if counts[wal.RecPrepare] != workers*perWorker || counts[wal.RecCommit] != workers*perWorker {
			t.Errorf("participant %d: %d prepares and %d outcome records on the device, want %d of each",
				i, counts[wal.RecPrepare], counts[wal.RecCommit], workers*perWorker)
		}
	}
}
