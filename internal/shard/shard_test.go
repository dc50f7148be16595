package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/shard"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

func kvSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	)
}

// openShard builds one in-memory engine shard, optionally wrapping the WAL
// device.
func openShard(t *testing.T, wrapWAL func(device.BlockDevice) device.BlockDevice) shard.Shard {
	t.Helper()
	var walDev device.BlockDevice = device.NewMem(page.Size, 1<<13)
	if wrapWAL != nil {
		walDev = wrapWAL(walDev)
	}
	opts := engine.DefaultOptions(device.NewMem(page.Size, 1<<14), walDev)
	opts.PoolFrames = 512
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Shard{Facade: engine.NewFacade(db), Table: tab}
}

func newRouter(t *testing.T, n int) *shard.Router {
	t.Helper()
	shards := make([]shard.Shard, n)
	for i := range shards {
		shards[i] = openShard(t, nil)
	}
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func row(key int64, val []byte) tuple.Row {
	return tuple.Row{key, append([]byte(nil), val...)}
}

func TestOfIsStableAndBalanced(t *testing.T) {
	// Stability: the function is part of the on-disk contract; pin a few
	// values so an accidental change fails loudly.
	pinned := map[int64]int{0: 0, 1: 1, 2: 2, 1023: 2, -7: 3}
	for key, want := range pinned {
		if got := shard.Of(key, 4); got != want {
			t.Errorf("Of(%d, 4) = %d, want %d (routing function changed: this re-homes every key)", key, got, want)
		}
	}
	// Balance: sequential keys must spread, not convoy on one shard.
	counts := make([]int, 4)
	for k := int64(0); k < 4096; k++ {
		counts[shard.Of(k, 4)]++
	}
	for i, c := range counts {
		if c < 4096/8 || c > 4096/2 {
			t.Errorf("shard %d owns %d of 4096 sequential keys; want roughly balanced", i, c)
		}
	}
}

// TestRangeMergeMatchesSingleShard is the cross-shard ordering property
// test: a fanned-out range merge over 2 and 4 shards must return exactly the
// rows and order a single-shard engine returns for the same data — and all
// must match an in-memory model.
func TestRangeMergeMatchesSingleShard(t *testing.T) {
	r1 := newRouter(t, 1)
	r2 := newRouter(t, 2)
	r4 := newRouter(t, 4)
	rng := rand.New(rand.NewSource(42))
	model := map[int64][]byte{}

	// Random mutation history applied identically to every router.
	for step := 0; step < 1500; step++ {
		key := rng.Int63n(512)
		val := []byte(fmt.Sprintf("v%d.%d", key, step))
		_, exists := model[key]
		op := rng.Intn(3)
		for _, r := range []*shard.Router{r1, r2, r4} {
			tx := r.Begin()
			var err error
			switch {
			case op == 0 && !exists:
				err = tx.Insert(row(key, val))
			case op == 0 && exists, op == 1 && exists:
				err = tx.Update(key, func(old tuple.Row) (tuple.Row, error) {
					out := append(tuple.Row(nil), old...)
					out[1] = append([]byte(nil), val...)
					return out, nil
				})
			case op == 2 && exists:
				err = tx.Delete(key)
			default: // update/delete of a missing key: skip
				tx.Abort()
				continue
			}
			if err != nil {
				t.Fatalf("step %d op %d key %d: %v", step, op, key, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("step %d commit: %v", step, err)
			}
		}
		switch {
		case op == 0 && !exists, op <= 1 && exists:
			model[key] = val
		case op == 2 && exists:
			delete(model, key)
		}
	}

	type kv struct {
		k int64
		v []byte
	}
	collect := func(r *shard.Router, lo, hi int64, limit int) []kv {
		tx := r.Begin()
		defer tx.Abort()
		var out []kv
		if err := tx.Range(lo, hi, func(row tuple.Row) bool {
			out = append(out, kv{row[0].(int64), append([]byte(nil), row[1].([]byte)...)})
			return limit == 0 || len(out) < limit
		}); err != nil {
			t.Fatalf("range [%d,%d]: %v", lo, hi, err)
		}
		return out
	}
	expect := func(lo, hi int64, limit int) []kv {
		var out []kv
		for k, v := range model {
			if k >= lo && k <= hi {
				out = append(out, kv{k, v})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out
	}

	for q := 0; q < 100; q++ {
		lo := rng.Int63n(600) - 40
		hi := lo + rng.Int63n(300)
		limit := 0
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(50)
		}
		if q == 0 {
			// The whole key space: ~100 rows per shard on 2 shards, more
			// than one merge batch each.
			lo, hi, limit = -1, 512, 0
		}
		want := expect(lo, hi, limit)
		for name, r := range map[string]*shard.Router{"1-shard": r1, "2-shard": r2, "4-shard": r4} {
			got := collect(r, lo, hi, limit)
			if len(got) != len(want) {
				t.Fatalf("%s range [%d,%d] limit %d: %d rows, want %d", name, lo, hi, limit, len(got), len(want))
			}
			for i := range want {
				if got[i].k != want[i].k || !bytes.Equal(got[i].v, want[i].v) {
					t.Fatalf("%s range [%d,%d] row %d: (%d,%q), want (%d,%q)",
						name, lo, hi, i, got[i].k, got[i].v, want[i].k, want[i].v)
				}
			}
		}
	}
	if rs := r4.RouterStats(); rs.RangeFanouts == 0 {
		t.Error("4-shard router reported no range fanouts")
	}
}

// TestCrossShardTxn exercises multi-shard commit and abort visibility.
func TestCrossShardTxn(t *testing.T) {
	r := newRouter(t, 4)

	// Find keys on distinct shards.
	var keys []int64
	seen := map[int]bool{}
	for k := int64(0); len(keys) < 3; k++ {
		if s := r.ShardOf(k); !seen[s] {
			seen[s] = true
			keys = append(keys, k)
		}
	}

	tx := r.Begin()
	for _, k := range keys {
		if err := tx.Insert(row(k, []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rs := r.RouterStats(); rs.CrossCommits != 1 {
		t.Errorf("CrossCommits = %d, want 1", rs.CrossCommits)
	}

	check := r.Begin()
	for _, k := range keys {
		if _, err := check.Get(k); err != nil {
			t.Errorf("key %d not visible after cross-shard commit: %v", k, err)
		}
	}
	check.Abort()

	// Abort rolls back every touched shard.
	tx2 := r.Begin()
	for _, k := range keys {
		if err := tx2.Update(k, func(old tuple.Row) (tuple.Row, error) {
			out := append(tuple.Row(nil), old...)
			out[1] = []byte("y")
			return out, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	check2 := r.Begin()
	for _, k := range keys {
		got, err := check2.Get(k)
		if err != nil || string(got[1].([]byte)) != "x" {
			t.Errorf("key %d after abort: %v %v, want x", k, got, err)
		}
	}
	check2.Abort()

	// Finished transactions reject further use.
	if err := tx2.Commit(); !errors.Is(err, shard.ErrFinished) {
		t.Errorf("commit after abort: %v, want ErrFinished", err)
	}
	if _, err := tx2.Get(keys[0]); !errors.Is(err, shard.ErrFinished) {
		t.Errorf("get after abort: %v, want ErrFinished", err)
	}

	// An untouched transaction commits as a no-op.
	if err := r.Begin().Commit(); err != nil {
		t.Errorf("empty commit: %v", err)
	}
}

// failingWAL injects a write error once armed, so one shard's commit flush
// fails while the others succeed.
type failingWAL struct {
	device.BlockDevice
	mu   sync.Mutex
	fail bool
}

func (d *failingWAL) setFail(v bool) {
	d.mu.Lock()
	d.fail = v
	d.mu.Unlock()
}

func (d *failingWAL) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	d.mu.Lock()
	fail := d.fail
	d.mu.Unlock()
	if fail {
		return at, errors.New("injected WAL failure")
	}
	return d.BlockDevice.WritePage(at, pageNo, p)
}

// TestCrossShardCommitFailure verifies 2PC atomicity under a participant
// failure: when one shard's prepare flush fails, the whole cross-shard
// transaction aborts — the error surfaces and NO shard's write is visible,
// including the healthy shard whose prepare succeeded.
func TestCrossShardCommitFailure(t *testing.T) {
	bad := &failingWAL{BlockDevice: device.NewMem(page.Size, 1<<13)}
	shards := []shard.Shard{
		openShard(t, nil),
		openShard(t, func(device.BlockDevice) device.BlockDevice { return bad }),
	}
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	var k0, k1 int64 = -1, -1
	for k := int64(0); k0 < 0 || k1 < 0; k++ {
		if r.ShardOf(k) == 0 && k0 < 0 {
			k0 = k
		} else if r.ShardOf(k) == 1 && k1 < 0 {
			k1 = k
		}
	}

	tx := r.Begin()
	if err := tx.Insert(row(k0, []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(row(k1, []byte("b"))); err != nil {
		t.Fatal(err)
	}
	bad.setFail(true)
	err = tx.Commit()
	bad.setFail(false)
	if err == nil {
		t.Fatal("commit with failing WAL succeeded")
	}

	check := r.Begin()
	defer check.Abort()
	if _, err := check.Get(k1); err == nil {
		t.Error("failed shard's write is visible after commit error")
	}
	if _, err := check.Get(k0); err == nil {
		t.Error("healthy shard's write is visible after a failed cross-shard commit (atomicity broken)")
	}
	rs := r.RouterStats()
	if rs.TwoPCAbortPrepare != 1 {
		t.Errorf("TwoPCAbortPrepare = %d, want 1", rs.TwoPCAbortPrepare)
	}
	if rs.TwoPCCommits != 0 {
		t.Errorf("TwoPCCommits = %d, want 0", rs.TwoPCCommits)
	}
}

// TestCheckpointAllShards verifies Router.Checkpoint reaches every shard.
func TestCheckpointAllShards(t *testing.T) {
	r := newRouter(t, 3)
	tx := r.Begin()
	for k := int64(0); k < 64; k++ {
		if err := tx.Insert(row(k, []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.N(); i++ {
		if st := r.Shard(i).Facade.Stats(); st.Pool.DirtyOut == 0 && st.Commits > 0 {
			t.Errorf("shard %d: checkpoint flushed nothing despite %d commits", i, st.Commits)
		}
	}
}

// TestConcurrentRouterTraffic hammers a 4-shard router from many goroutines
// (run under -race in CI): point ops, cross-shard txns and fanned-out
// ranges interleaving with checkpoints.
func TestConcurrentRouterTraffic(t *testing.T) {
	r := newRouter(t, 4)
	seed := r.Begin()
	for k := int64(0); k < 128; k++ {
		if err := seed.Insert(row(k, []byte("seed"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				tx := r.Begin()
				ok := true
				for j := 0; j < 3 && ok; j++ {
					k := rng.Int63n(128)
					switch rng.Intn(3) {
					case 0:
						if _, err := tx.Get(k); err != nil {
							ok = false
						}
					case 1:
						if err := tx.Update(k, func(old tuple.Row) (tuple.Row, error) {
							out := append(tuple.Row(nil), old...)
							out[1] = []byte(fmt.Sprintf("w%d.%d", w, i))
							return out, nil
						}); err != nil {
							ok = false
						}
					case 2:
						if err := tx.Range(k, k+16, func(tuple.Row) bool { return true }); err != nil {
							ok = false
						}
					}
				}
				if !ok {
					tx.Abort()
					continue
				}
				tx.Commit() // serialization failures are fine here
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			return
		default:
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
