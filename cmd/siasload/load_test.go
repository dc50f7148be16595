package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wire"
)

// startServer serves a 2-shard in-memory engine on a loopback listener, as
// siasserver assembles one, and returns the server, its router and address.
func startServer(t *testing.T) (*server.Server, *shard.Router, string) {
	t.Helper()
	shards := make([]shard.Shard, 2)
	for i := range shards {
		db, err := engine.Open(engine.DefaultOptions(device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14)))
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := db.CreateTable(0, "kv", tuple.NewSchema(
			tuple.Column{Name: "k", Type: tuple.TypeInt64},
			tuple.Column{Name: "v", Type: tuple.TypeBytes},
		), "k")
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = shard.Shard{Facade: engine.NewFacade(db), Table: tab}
	}
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Router: r})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		<-served
	})
	return srv, r, ln.Addr().String()
}

// runLoad drives one workload and returns its -json report.
func runLoad(t *testing.T, cfg loadConfig, mk func(*client.Client, *loadConfig) (*workload, error)) (report, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.json")
	err := drive(cfg, path, mk)
	var res report
	if rerr := readJSON(path, &res); rerr != nil {
		t.Fatalf("report: %v (run: %v)", rerr, err)
	}
	return res, err
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

// checkAccounting asserts that every transaction the workers ran has exactly
// one outcome, and that the per-shard engine deltas add up to the aggregate.
func checkAccounting(t *testing.T, res report) {
	t.Helper()
	cfg := res.Config
	if got, want := res.Committed+res.Conflicts+res.Drained+res.Failures, int64(cfg.Workers*cfg.Txns); got != want {
		t.Errorf("%s: committed %d + conflicts %d + drained %d + failures %d = %d, want %d",
			cfg.Workload, res.Committed, res.Conflicts, res.Drained, res.Failures, got, want)
	}
	if len(res.Shards) != cfg.Shards {
		t.Fatalf("%s: %d per-shard deltas, server has %d shards", cfg.Workload, len(res.Shards), cfg.Shards)
	}
	var sum int64
	for _, s := range res.Shards {
		sum += s.Commits
	}
	if sum != res.Engine.Commits {
		t.Errorf("%s: per-shard Commits sum to %d, aggregate %d", cfg.Workload, sum, res.Engine.Commits)
	}
}

func TestDriveKV(t *testing.T) {
	_, _, addr := startServer(t)
	res, err := runLoad(t, loadConfig{Addr: addr, Workload: "kv", Workers: 4, Txns: 50, Keys: 256, ReadFrac: 0.5}, kvWorkload)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	if res.Failures != 0 || res.Committed == 0 || res.Engine.Commits < res.Committed {
		t.Errorf("kv: %d committed, %d failures, %d engine commits", res.Committed, res.Failures, res.Engine.Commits)
	}
	var homed int64
	for _, h := range res.ByHome {
		homed += h.Txns
	}
	if homed+res.CrossShard.Txns != res.Committed {
		t.Errorf("kv: %d single-shard + %d cross-shard transactions, %d committed", homed, res.CrossShard.Txns, res.Committed)
	}
}

func TestDriveIndexThenVerifyState(t *testing.T) {
	_, _, addr := startServer(t)
	state := filepath.Join(t.TempDir(), "state.json")
	res, err := runLoad(t, loadConfig{Addr: addr, Workload: "index", Workers: 4, Txns: 30, Keys: 512, ReadFrac: 0.5},
		func(c *client.Client, cfg *loadConfig) (*workload, error) { return indexWorkload(c, cfg, state) })
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	if ix := res.Index; ix == nil || !ix.AsOfVerified || ix.AsOfGroupsChecked == 0 {
		t.Errorf("index report %+v", ix)
	}
	if res.Failures != 0 || res.Engine.IndexLookups == 0 || res.Engine.IndexInserts == 0 {
		t.Errorf("index: %d failures, %d index lookups, %d index inserts", res.Failures, res.Engine.IndexLookups, res.Engine.IndexInserts)
	}
	if err := verifyState(addr, state); err != nil {
		t.Fatal(err)
	}
}

func TestDriveXShardVerifies(t *testing.T) {
	_, _, addr := startServer(t)
	res, err := runLoad(t, loadConfig{Addr: addr, Workload: "xshard", Groups: 8, Workers: 4, Txns: 25},
		func(_ *client.Client, cfg *loadConfig) (*workload, error) { return xshardWorkload(cfg, false) })
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	if res.Crashed || res.Failures != 0 || res.CrossShard.Txns != res.Committed {
		t.Errorf("xshard: crashed=%v, %d failures, %d of %d committed cross-shard",
			res.Crashed, res.Failures, res.CrossShard.Txns, res.Committed)
	}
}

// TestDriveXShardExpectCrash kills the server in the middle of the churn, as
// a crashpoint does: the run must end there and report the crash.
func TestDriveXShardExpectCrash(t *testing.T) {
	srv, r, addr := startServer(t)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for deadline := time.Now().Add(10 * time.Second); shard.Aggregate(r.Stats()).Commits < 40 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		srv.Kill()
	}()
	res, err := runLoad(t, loadConfig{Addr: addr, Workload: "xshard", Groups: 8, Workers: 4, Txns: 100000},
		func(_ *client.Client, cfg *loadConfig) (*workload, error) { return xshardWorkload(cfg, true) })
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || res.Failures == 0 || res.Committed == 0 {
		t.Errorf("expect-crash: crashed=%v after %d committed, %d failures", res.Crashed, res.Committed, res.Failures)
	}
}

// TestDriveCountsEveryOutcome runs a transaction that cycles through the
// outcome classes, so a loop that drops or misfiles one cannot close its
// accounting.
func TestDriveCountsEveryOutcome(t *testing.T) {
	_, _, addr := startServer(t)
	outcomes := []error{
		nil,
		txn.ErrSerialization,
		txn.ErrLockTimeout,
		wire.ErrShuttingDown,
		engine.ErrReadOnly,
		errors.New("lost"),
		fmt.Errorf("%w: lost", client.ErrInDoubt),
	}
	mk := func(*client.Client, *loadConfig) (*workload, error) {
		return &workload{
			desc: "outcomes", items: 1, batch: 1,
			put: func(tx *client.Tx, i int, update bool) error { return nil },
			get: func(tx *client.Tx, i int) error { return engine.ErrNotFound },
			txn: func(_ *client.Client, _ *rand.Rand, _, i int) (int, error) {
				return i % 2, outcomes[i%len(outcomes)]
			},
		}, nil
	}
	cfg := loadConfig{Addr: addr, Workload: "outcomes", Workers: 3, Txns: 2 * len(outcomes)}
	res, err := runLoad(t, cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	per := int64(cfg.Workers * 2) // each outcome, per worker, twice
	if res.Committed != per || res.Conflicts != 2*per || res.Drained != 2*per || res.Failures != 2*per || res.InDoubt != per {
		t.Errorf("committed %d, conflicts %d, drained %d, failures %d (%d in doubt); want %d, %d, %d, %d (%d)",
			res.Committed, res.Conflicts, res.Drained, res.Failures, res.InDoubt, per, 2*per, 2*per, 2*per, per)
	}
}

// TestPreloadRerunReusesRows preloads the kv workload twice into one server,
// as a rerun of siasload against a loaded server does: the second run
// updates the rows the first inserted, so the keyspace holds each key once.
// A third run with a larger keyspace updates what exists and inserts the
// rest.
func TestPreloadRerunReusesRows(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, keys := range []int64{300, 300, 400} {
		cfg := loadConfig{Keys: keys, Shards: 2}
		wl, err := kvWorkload(c, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := preload(c, wl); err != nil {
			t.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := tx.Scan(0, 1<<62, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if int64(len(kvs)) != keys {
			t.Fatalf("after a preload of %d keys the keyspace holds %d rows", keys, len(kvs))
		}
	}
}
