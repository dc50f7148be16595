package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wire"
)

func kvSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	)
}

// openKV assembles one engine shard (facade+table) over the given devices.
func openKV(t testing.TB, data, walDev device.BlockDevice, recover bool) shard.Shard {
	t.Helper()
	opts := engine.DefaultOptions(data, walDev)
	opts.Recover = recover
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if recover {
		if _, err := db.Recover(0); err != nil {
			t.Fatal(err)
		}
	}
	return shard.Shard{Facade: engine.NewFacade(db), Table: tab}
}

// routerOf wraps shards in a Router.
func routerOf(t testing.TB, shards ...shard.Shard) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// memRouter builds an n-shard router over in-memory devices.
func memRouter(t testing.TB, n int) *shard.Router {
	t.Helper()
	shards := make([]shard.Shard, n)
	for i := range shards {
		shards[i] = openKV(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false)
	}
	return routerOf(t, shards...)
}

// startServer serves f/tab on a loopback listener and returns the server
// and its address. The serve loop error is checked at cleanup.
func startServer(t *testing.T, r *shard.Router, mut func(*server.Config)) (*server.Server, string) {
	t.Helper()
	cfg := server.Config{Router: r}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func TestServerEndToEnd(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 1), nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Insert + read back in one transaction, then across transactions.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := tx.Insert(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tx.Get(3)
	if err != nil || string(got) != "v3" {
		t.Fatalf("own write: %q %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tx2.Get(1); err != nil || string(got) != "v1" {
		t.Fatalf("committed read: %q %v", got, err)
	}
	if err := tx2.Update(1, []byte("v1b")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(5); err != nil {
		t.Fatal(err)
	}
	kvs, err := tx2.Scan(0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 4 || kvs[0].Key != 1 || string(kvs[0].Val) != "v1b" {
		t.Fatalf("scan: %v", kvs)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Typed not-found across the wire.
	tx3, _ := c.Begin()
	if _, err := tx3.Get(5); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted key: %v, want engine.ErrNotFound", err)
	}
	// Abort rolls back.
	if err := tx3.Update(2, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Abort(); err != nil {
		t.Fatal(err)
	}
	tx4, _ := c.Begin()
	if got, _ := tx4.Get(2); string(got) != "v2" {
		t.Fatalf("aborted update leaked: %q", got)
	}
	tx4.Commit()

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Commits < 3 || st.Server.Requests == 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerConcurrentWorkers is the acceptance run: 8 workers doing a
// mixed read/write workload through the pooled client against a live
// server, under -race, with write-write conflicts handled as typed errors.
func TestServerConcurrentWorkers(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 1), nil)
	c, err := client.Dial(addr, client.Options{PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 16
	setup, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < keys; i++ {
		if err := setup.Insert(i, []byte("init")); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const opsEach = 40
	var commits, conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				tx, err := c.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				key := int64((w*3 + op) % keys)
				var opErr error
				if op%3 == 0 {
					opErr = tx.Update(key, []byte(fmt.Sprintf("w%d.%d", w, op)))
				} else {
					_, opErr = tx.Get(key)
				}
				if opErr != nil {
					tx.Abort()
					if errors.Is(opErr, txn.ErrSerialization) || errors.Is(opErr, txn.ErrLockTimeout) {
						conflicts.Add(1)
						continue
					}
					t.Errorf("worker %d op %d: %v", w, op, opErr)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()

	if commits.Load() == 0 {
		t.Fatal("no commits went through")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.CommitFlushes > st.Engine.Commits {
		t.Errorf("flushes %d > commits %d", st.Engine.CommitFlushes, st.Engine.Commits)
	}
	t.Logf("commits=%d conflicts=%d flushes=%d batches=%d",
		commits.Load(), conflicts.Load(), st.Engine.CommitFlushes, st.Engine.CommitBatches)
}

// gatedWAL blocks WritePage until released, letting the test pin a DDL
// mid-flush with the admission slot held.
type gatedWAL struct {
	device.BlockDevice
	gate chan struct{}
}

func (d *gatedWAL) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	<-d.gate
	return d.BlockDevice.WritePage(at, pageNo, p)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerAdmissionControl holds the single in-flight slot with a CREATE
// TABLE stuck in its WAL flush. Requests that start or run inside a
// transaction are refused with the typed overload error, not queued; COMMIT
// and ABORT still end theirs — ending one releases the locks and snapshot
// admission protects, and a refused one would stay open on the client's
// pooled connection.
func TestServerAdmissionControl(t *testing.T) {
	gate := make(chan struct{})
	walDev := &gatedWAL{BlockDevice: device.NewMem(page.Size, 1<<14), gate: gate}
	sh := openKV(t, device.NewMem(page.Size, 1<<16), walDev, false)
	srv, addr := startServer(t, routerOf(t, sh), func(cfg *server.Config) { cfg.MaxInFlight = 1 })

	c, err := client.Dial(addr, client.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two transactions opened while the slot is free, one to commit and one
	// to abort. They only read: a commit that wrote would wait on the gated
	// WAL, which says nothing about admission.
	var txs [2]*client.Tx
	for i := range txs {
		if txs[i], err = c.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := txs[i].Scan(0, 10, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Connection A occupies the slot.
	ca, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	admitted := srv.Stats().Requests
	ddlDone := make(chan error, 1)
	go func() { ddlDone <- ca.CreateTable("held", kvSchema(), "k") }()
	waitUntil(t, "the DDL to take the slot", func() bool { return srv.Stats().Requests != admitted })

	// A BEGIN on connection B is refused. Raw wire framing so no
	// client-side retry masks the code.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, uint8(wire.OpBegin), nil); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := wire.ReadFrame(nc); err != nil || wire.Code(tag) != wire.CodeOverloaded {
		t.Fatalf("BEGIN beside the held slot got %s (%v), want OVERLOADED", wire.Code(tag), err)
	}
	if _, err := txs[0].Get(1); !errors.Is(err, wire.ErrOverloaded) {
		t.Errorf("GET beside the held slot: %v, want OVERLOADED", err)
	}
	if err := txs[0].Commit(); err != nil {
		t.Errorf("COMMIT beside the held slot: %v", err)
	}
	if err := txs[1].Abort(); err != nil {
		t.Errorf("ABORT beside the held slot: %v", err)
	}
	// Neither transaction wrote, so their ends wait for no reply: they
	// reach the server within the lazy-flush bound, while the slot is still
	// held.
	waitUntil(t, "COMMIT and ABORT under overload to end their transactions", func() bool { return srv.Stats().OpenTxns == 0 })

	// Release the flush; A's DDL completes, and with the slot free a
	// transaction runs.
	close(gate)
	if err := <-ddlDone; err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(1, []byte("b")); err != nil {
		t.Fatalf("after overload: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestServerDrainAndRecover covers the graceful-drain acceptance criteria
// over file-backed devices: in-flight transactions finish during drain, new
// transactions are refused with a typed error, stragglers are aborted at
// the deadline, and a restarted server recovers the committed state via
// engine recovery.
func TestServerDrainAndRecover(t *testing.T) {
	dir := t.TempDir()
	openDevices := func() (*device.File, *device.File) {
		data, err := device.OpenFile(filepath.Join(dir, "data.img"), page.Size, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		walDev, err := device.OpenFile(filepath.Join(dir, "wal.img"), page.Size, 1<<13)
		if err != nil {
			t.Fatal(err)
		}
		return data, walDev
	}

	data, walDev := openDevices()
	srv, err := server.New(server.Config{Router: routerOf(t, openKV(t, data, walDev, false))})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	c, err := client.Dial(addr, client.Options{PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Committed-before-drain state.
	base, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := base.Insert(i, []byte("keep")); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}

	// In-flight transaction that will finish during the drain.
	inflight, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := inflight.Insert(11, []byte("inflight")); err != nil {
		t.Fatal(err)
	}
	// Straggler that never commits: it must be aborted by the deadline.
	straggler, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := straggler.Insert(12, []byte("straggler")); err != nil {
		t.Fatal(err)
	}

	// The straggler is aborted once the drain's 500 ms deadline passes.
	const drainTimeout = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainStart := time.Now()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// New transactions are refused with the typed drain error once the
	// server is draining (the drain flag flips before Shutdown blocks). Begin
	// sends nothing, so it keeps succeeding; the refusal meets the first
	// operation, which carries the BEGIN.
	var firstErr error
	for i := 0; i < 100 && firstErr == nil; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatalf("Begin talks to no server and must not fail during a drain: %v", err)
		}
		_, firstErr = tx.Get(1)
		tx.Abort()
		time.Sleep(2 * time.Millisecond)
	}
	if firstErr == nil {
		t.Error("transactions kept starting during drain")
	} else if !errors.Is(firstErr, wire.ErrShuttingDown) && !isConnErr(firstErr) {
		t.Errorf("first operation during drain: %v, want wire.ErrShuttingDown", firstErr)
	}

	// The in-flight transaction commits cleanly during the drain window.
	if err := inflight.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The straggler held the drain until the context's deadline, and not
	// past it.
	if took := time.Since(drainStart); took < drainTimeout || took > drainTimeout+2*time.Second {
		t.Fatalf("drain with a straggler took %v, want the %v deadline (+ under 2 s)", took, drainTimeout)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	if err := walDev.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same files with recovery.
	data2, walDev2 := openDevices()
	defer data2.Close()
	defer walDev2.Close()
	_, addr2 := startServer(t, routerOf(t, openKV(t, data2, walDev2, true)), nil)
	c2, err := client.Dial(addr2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	tx, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 11 {
		t.Fatalf("recovered %d rows, want 11 (10 base + 1 in-flight commit): %v", len(kvs), kvs)
	}
	if got, err := tx.Get(11); err != nil || string(got) != "inflight" {
		t.Fatalf("in-flight row: %q %v", got, err)
	}
	if _, err := tx.Get(12); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("straggler row must not survive: %v", err)
	}
	tx.Commit()
}

// isConnErr reports whether err is a transport-level failure (the force
// phase of a drain closes connections).
func isConnErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, net.ErrClosed)
}

// TestServerShardedEndToEnd runs the full wire workload against a 4-shard
// router: point ops route by hash, scans fan out and merge, and the
// per-shard STATS breakdown is populated.
func TestServerShardedEndToEnd(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 4), nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := int64(0); i < n; i++ {
		if err := tx.Insert(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx2.Scan(0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("scan returned %d rows, want %d", len(kvs), n)
	}
	for i, kv := range kvs {
		if kv.Key != int64(i) || string(kv.Val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("scan row %d: (%d,%q) out of order", i, kv.Key, kv.Val)
		}
	}
	// LIMIT terminates the fanned-out merge early.
	head, err := tx2.Scan(0, n, 5)
	if err != nil || len(head) != 5 || head[4].Key != 4 {
		t.Fatalf("limited scan: %v %v", head, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.Shards != 4 || len(st.Shards) != 4 {
		t.Fatalf("stats shards: router=%d per-shard=%d, want 4", st.Router.Shards, len(st.Shards))
	}
	var perShardCommits int64
	for _, s := range st.Shards {
		perShardCommits += s.Commits
	}
	if perShardCommits != st.Engine.Commits || perShardCommits == 0 {
		t.Errorf("per-shard commits %d != aggregate %d", perShardCommits, st.Engine.Commits)
	}
	if st.Router.RangeFanouts == 0 {
		t.Error("no range fanouts counted")
	}
}

// TestServerDrainUnderLoadMeetsDeadline is the checkpoint-contention
// regression test: with 4 shards under live write load, Shutdown must
// finish within the drain deadline plus the (one-shard-at-a-time)
// checkpoint — not time out because maintenance locks were held across all
// shards at once.
func TestServerDrainUnderLoadMeetsDeadline(t *testing.T) {
	const drainTimeout = 1 * time.Second
	srv, addr := startServer(t, memRouter(t, 4), nil)
	c, err := client.Dial(addr, client.Options{PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seed, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if err := seed.Insert(i, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// Live load: workers keep opening transactions until the drain refuses
	// them. They must all observe typed errors or broken connections, never
	// hang.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := c.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				key := int64((w*17 + i) % 64)
				if err := tx.Update(key, []byte("load")); err != nil {
					tx.Abort()
					if errors.Is(err, wire.ErrShuttingDown) || errors.Is(err, client.ErrNoPrimary) {
						return // drain refused the BEGIN in front of it or closed the connection
					}
					continue
				}
				tx.Commit()
			}
		}(w)
	}

	// Let the load ramp, then drain and require the whole shutdown —
	// including the per-shard sequential checkpoint — to meet the deadline
	// with headroom for the checkpoint itself.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	took := time.Since(start)
	close(stop)
	wg.Wait()
	if limit := drainTimeout + 2*time.Second; took > limit {
		t.Fatalf("drain under load took %v, want < %v", took, limit)
	}
	t.Logf("drain under load completed in %v", took)
}
