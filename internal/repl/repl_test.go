package repl_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/repl"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/wire"
)

func kvSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	)
}

// openPrimary assembles one primary shard over the given devices, optionally
// recovering an existing image (restart after a crash).
func openPrimary(t *testing.T, data, walDev device.BlockDevice, recover bool) shard.Shard {
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

// openFollower assembles one follower shard: replica mode on before the
// table exists (so its extents come from the scratch region), and on restart
// the mirrored log is replayed and resumed at its exact byte position.
func openFollower(t *testing.T, data, walDev device.BlockDevice, recover bool) shard.Shard {
	t.Helper()
	opts := engine.DefaultOptions(data, walDev)
	opts.Recover = recover
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.SetReplica(true)
	tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if recover {
		if _, err := db.Recover(0); err != nil {
			t.Fatal(err)
		}
		// Recover fast-forwarded the id allocator; re-seed the read horizon.
		db.SetReplica(true)
	}
	return shard.Shard{Facade: engine.NewFacade(db), Table: tab}
}

func routerOf(t *testing.T, shards ...shard.Shard) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// serveOn starts srv on ln and returns a channel carrying Serve's result.
func serveOn(srv *server.Server, ln net.Listener) chan error {
	ch := make(chan error, 1)
	go func() { ch <- srv.Serve(ln) }()
	return ch
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// caughtUp reports whether every shard's applied LSN matches the primary's
// durable LSN (and the primary has logged something at all).
func caughtUp(f *repl.Follower) bool {
	for _, s := range f.Stats().Shards {
		if s.PrimaryDurableLSN == 0 || s.AppliedLSN != s.PrimaryDurableLSN {
			return false
		}
	}
	return true
}

// loadKeys commits keys [lo, hi) with values derived from tag.
func loadKeys(t *testing.T, c *client.Client, lo, hi int64, tag string) {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		if err := tx.Insert(i, []byte(fmt.Sprintf("%s%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationBasic streams a 2-shard primary's load to a live follower:
// lag converges to zero, follower reads serve the replicated snapshot, and
// writes are refused with the typed read-only error until promotion.
func TestReplicationBasic(t *testing.T) {
	prim := routerOf(t,
		openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
		openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
	)
	// Tracers on both sides: the primary records the commit pipeline, the
	// follower links its apply work back via the WAL-carried trace context.
	ptracer := obs.NewTracer(0)
	t.Cleanup(ptracer.Close)
	ftracer := obs.NewTracer(0)
	t.Cleanup(ftracer.Close)
	psrv, err := server.New(server.Config{Router: prim, Tracer: ptracer})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)
	defer func() {
		psrv.Shutdown(context.Background())
		<-pErr
	}()

	follow := []shard.Shard{
		openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
		openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
	}
	f, err := repl.NewFollower(repl.Config{
		PrimaryAddr: pln.Addr().String(),
		Shards:      []*engine.Facade{follow[0].Facade, follow[1].Facade},
		Logf:        t.Logf,
		Tracer:      ftracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	defer f.Stop()

	fsrv, err := server.New(server.Config{Router: routerOf(t, follow...), Replica: f})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fErr := serveOn(fsrv, fln)
	defer func() {
		fsrv.Shutdown(context.Background())
		<-fErr
	}()

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const n = 100
	loadKeys(t, pc, 0, n, "v")

	// One client-sampled cross-shard commit: its trace context travels the
	// wire to the primary and then the WAL stream to the follower.
	tracedC, err := client.Dial(pln.Addr().String(), client.Options{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	var k0, k1 int64 = -1, -1
	for k := int64(2000); k0 < 0 || k1 < 0; k++ {
		switch {
		case shard.Of(k, 2) == 0 && k0 < 0:
			k0 = k
		case shard.Of(k, 2) == 1 && k1 < 0:
			k1 = k
		}
	}
	ttx, err := tracedC.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := ttx.Insert(k0, []byte("t")); err != nil {
		t.Fatal(err)
	}
	if err := ttx.Insert(k1, []byte("t")); err != nil {
		t.Fatal(err)
	}
	if err := ttx.Commit(); err != nil {
		t.Fatal(err)
	}
	tracedC.Close()

	waitFor(t, 10*time.Second, "replication lag to reach zero", func() bool { return caughtUp(f) })

	// The follower emitted a repl.apply span per participant shard, all
	// under the trace id the client minted on the primary side. caughtUp
	// compares against the follower's last-received view of the primary
	// durable LSN, which can lag the traced commit — wait for the spans.
	ptracer.Drain()
	var wantTrace uint64
	for _, rec := range ptracer.Snapshot() {
		if rec.Name == "COMMIT" {
			wantTrace = rec.TraceID
		}
	}
	if wantTrace == 0 {
		t.Fatal("primary tracer retained no COMMIT span for the sampled transaction")
	}
	waitFor(t, 10*time.Second, "repl.apply spans from both shards", func() bool {
		ftracer.Drain()
		seen := map[int]bool{}
		for _, rec := range ftracer.Snapshot() {
			if rec.Name == "repl.apply" {
				seen[rec.Shard] = true
			}
		}
		return seen[0] && seen[1]
	})
	applyShards := map[int]bool{}
	for _, rec := range ftracer.Snapshot() {
		if rec.Name != "repl.apply" {
			t.Fatalf("unexpected follower span %q", rec.Name)
		}
		if rec.TraceID != wantTrace {
			t.Fatalf("repl.apply trace id %016x, want the primary's %016x", rec.TraceID, wantTrace)
		}
		if rec.Annotations["applied_lsn"] == "" {
			t.Fatalf("repl.apply span missing applied_lsn: %+v", rec)
		}
		applyShards[rec.Shard] = true
	}
	if !applyShards[0] || !applyShards[1] {
		t.Fatalf("repl.apply spans on shards %v, want both 2PC participants", applyShards)
	}

	fc, err := client.Dial(fln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	tx, err := fc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("follower scan returned %d rows, want %d", len(kvs), n)
	}
	for i, kv := range kvs {
		if kv.Key != int64(i) || string(kv.Val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("follower row %d: (%d,%q)", i, kv.Key, kv.Val)
		}
	}
	// The INSERT goes ahead of its reply: the follower's refusal is the
	// error of the Commit that settles it.
	if err := tx.Insert(1000, []byte("nope")); err != nil {
		t.Fatalf("follower write sent ahead: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("follower write: %v, want engine.ErrReadOnly", err)
	}

	st, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Repl == nil || st.Repl.Promoted || len(st.Repl.Shards) != 2 {
		t.Fatalf("follower STATS repl section: %+v", st.Repl)
	}
	for i, s := range st.Repl.Shards {
		if s.LagBytes != 0 || s.AppliedLSN == 0 {
			t.Fatalf("shard %d lag: %+v", i, s)
		}
	}
}

// TestPrimaryKillResume SIGKILLs the primary (Server.Kill: no drain, no
// checkpoint) mid-replication, restarts it over the same devices with crash
// recovery, and requires the follower to resume from its applied LSN —
// ending with every committed row present exactly once, and a log
// byte-identical to the primary's across the restart.
func TestPrimaryKillResume(t *testing.T) {
	pData := device.NewMem(page.Size, 1<<16)
	pWAL := device.NewMem(page.Size, 1<<14)

	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pln.Addr().String()
	psrv, err := server.New(server.Config{Router: routerOf(t, openPrimary(t, pData, pWAL, false))})
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)

	fWAL := device.NewMem(page.Size, 1<<14)
	fsh := openFollower(t, device.NewMem(page.Size, 1<<16), fWAL, false)
	f, err := repl.NewFollower(repl.Config{
		PrimaryAddr: addr,
		Shards:      []*engine.Facade{fsh.Facade},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	defer f.Stop()

	pc, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadKeys(t, pc, 0, 50, "a")
	waitFor(t, 10*time.Second, "follower to catch up before the kill", func() bool { return caughtUp(f) })
	appliedBefore := f.Stats().Shards[0].AppliedLSN

	// Crash: connections (including the subscription) drop, nothing is
	// checkpointed, and the unflushed log tail is lost.
	psrv.Kill()
	<-pErr
	pc.Close()

	// Restart over the same devices: recovery replays the durable log and the
	// primary writes on at its exact end, where the follower's log ends too.
	pln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	psrv2, err := server.New(server.Config{Router: routerOf(t, openPrimary(t, pData, pWAL, true))})
	if err != nil {
		t.Fatal(err)
	}
	pErr2 := serveOn(psrv2, pln2)
	defer func() {
		psrv2.Shutdown(context.Background())
		<-pErr2
	}()

	pc2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	loadKeys(t, pc2, 50, 100, "b")

	waitFor(t, 10*time.Second, "follower to catch up after the restart", func() bool {
		return caughtUp(f) && f.Stats().Shards[0].AppliedLSN > appliedBefore
	})
	applied := int64(f.Stats().Shards[0].AppliedLSN)
	pBuf, fBuf := make([]byte, page.Size), make([]byte, page.Size)
	for pg := int64(0); pg*page.Size < applied; pg++ {
		if _, err := pWAL.ReadPage(0, pg, pBuf); err != nil {
			t.Fatal(err)
		}
		if _, err := fWAL.ReadPage(0, pg, fBuf); err != nil {
			t.Fatal(err)
		}
		n := min(page.Size, applied-pg*page.Size)
		if !bytes.Equal(pBuf[:n], fBuf[:n]) {
			t.Fatalf("log page %d differs between the primary and the follower", pg)
		}
	}

	// The follower serves the rows from before and after the restart, each
	// exactly once.
	fsrv, err := server.New(server.Config{Router: routerOf(t, fsh), Replica: f})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fErr := serveOn(fsrv, fln)
	defer func() {
		fsrv.Shutdown(context.Background())
		<-fErr
	}()
	fc, err := client.Dial(fln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	tx, err := fc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(0, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 100 {
		t.Fatalf("follower has %d rows, want 100", len(kvs))
	}
	seen := map[int64]bool{}
	for _, kv := range kvs {
		if seen[kv.Key] {
			t.Fatalf("duplicate key %d after resume", kv.Key)
		}
		seen[kv.Key] = true
		tag := "a"
		if kv.Key >= 50 {
			tag = "b"
		}
		if want := fmt.Sprintf("%s%d", tag, kv.Key); string(kv.Val) != want {
			t.Fatalf("key %d: %q, want %q", kv.Key, kv.Val, want)
		}
	}
	tx.Abort()
}

// TestDrainHandoffFailover drains the primary while a follower is announced:
// the SHUTTING_DOWN rejection carries the follower's address, the client
// repoints itself, the follower auto-promotes on the end-of-stream frame,
// and the client's next write commits there.
func TestDrainHandoffFailover(t *testing.T) {
	prim := routerOf(t, openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false))
	psrv, err := server.New(server.Config{Router: prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)

	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsh := openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false)
	f, err := repl.NewFollower(repl.Config{
		PrimaryAddr: pln.Addr().String(),
		Announce:    fln.Addr().String(),
		Shards:      []*engine.Facade{fsh.Facade},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.New(server.Config{Router: routerOf(t, fsh), Replica: f})
	if err != nil {
		t.Fatal(err)
	}
	fErr := serveOn(fsrv, fln)
	defer func() {
		fsrv.Shutdown(context.Background())
		<-fErr
	}()
	f.Run()
	defer f.Stop()

	c, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadKeys(t, c, 0, 20, "v")
	waitFor(t, 10*time.Second, "follower to catch up before the drain", func() bool { return caughtUp(f) })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- psrv.Shutdown(context.Background()) }()
	// A write that reached the primary before the drain began would commit
	// there and never meet the redirect.
	waitFor(t, 10*time.Second, "the primary to begin draining", func() bool { return psrv.Ready() != nil })

	// Keep trying the write through the handoff window: the drain rejection
	// redirects the client, and the follower accepts the write once the
	// end-of-stream frame has triggered its self-promotion.
	// Begin itself sends nothing: it is the first operation, carrying the
	// BEGIN, that meets the refusal and chases the redirect.
	waitFor(t, 10*time.Second, "a post-failover write to commit", func() bool {
		tx, err := c.Begin()
		if err != nil {
			t.Errorf("Begin talks to no server and must not fail during the handoff: %v", err)
			return true
		}
		if err := tx.Insert(500, []byte("after")); err != nil {
			if errors.Is(err, wire.ErrShuttingDown) {
				t.Errorf("the drain refusal surfaced instead of being chased to the follower: %v", err)
			}
			tx.Abort()
			return false
		}
		return tx.Commit() == nil
	})

	if err := <-shutdownDone; err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if err := <-pErr; err != nil {
		t.Fatalf("primary serve: %v", err)
	}
	if got := c.Addr(); got != fln.Addr().String() {
		t.Fatalf("client targets %s, want follower %s", got, fln.Addr().String())
	}
	if !f.Promoted() {
		t.Fatal("follower did not promote after the drain")
	}

	// Replicated and post-failover rows are both visible on the promoted
	// follower.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(0, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 21 {
		t.Fatalf("promoted follower has %d rows, want 21", len(kvs))
	}
	if got, err := tx.Get(500); err != nil || string(got) != "after" {
		t.Fatalf("post-failover row: %q %v", got, err)
	}
	if got, err := tx.Get(7); err != nil || string(got) != "v7" {
		t.Fatalf("replicated row: %q %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFanoutKillResume streams one primary to three concurrent followers,
// kills one mid-fleet (severed without drain, as a crashed process would
// be), and requires the survivors to stay caught up while the victim —
// restarted over its own devices — resumes from its applied LSN and
// converges with the rest.
func TestFanoutKillResume(t *testing.T) {
	prim := routerOf(t, openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false))
	psrv, err := server.New(server.Config{Router: prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)
	defer func() {
		psrv.Shutdown(context.Background())
		<-pErr
	}()

	// Three followers; follower 1 keeps its devices so it can be restarted.
	f1Data := device.NewMem(page.Size, 1<<16)
	f1WAL := device.NewMem(page.Size, 1<<14)
	shards := []shard.Shard{
		openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
		openFollower(t, f1Data, f1WAL, false),
		openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
	}
	fs := make([]*repl.Follower, 3)
	for i, sh := range shards {
		f, err := repl.NewFollower(repl.Config{
			PrimaryAddr: pln.Addr().String(),
			Shards:      []*engine.Facade{sh.Facade},
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Run()
		fs[i] = f
	}
	defer func() {
		for _, f := range fs {
			f.Stop()
		}
	}()

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	loadKeys(t, pc, 0, 50, "a")
	for i, f := range fs {
		f := f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to catch up", i), func() bool { return caughtUp(f) })
	}

	// Kill follower 1: the stream drops without drain; its devices survive.
	fs[1].Stop()

	loadKeys(t, pc, 50, 100, "b")
	waitFor(t, 10*time.Second, "follower 0 to stay caught up", func() bool { return caughtUp(fs[0]) })
	waitFor(t, 10*time.Second, "follower 2 to stay caught up", func() bool { return caughtUp(fs[2]) })

	// Restart the victim over the same devices: recovery replays the mirrored
	// log and the subscription resumes from the exact applied byte position.
	resh := openFollower(t, f1Data, f1WAL, true)
	f1b, err := repl.NewFollower(repl.Config{
		PrimaryAddr: pln.Addr().String(),
		Shards:      []*engine.Facade{resh.Facade},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f1b.Run()
	fs[1] = f1b
	waitFor(t, 10*time.Second, "restarted follower to converge", func() bool { return caughtUp(f1b) })

	// The restarted follower serves every committed row exactly once.
	fsrv, err := server.New(server.Config{Router: routerOf(t, resh), Replica: f1b})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fErr := serveOn(fsrv, fln)
	defer func() {
		fsrv.Shutdown(context.Background())
		<-fErr
	}()
	fc, err := client.Dial(fln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	tx, err := fc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(0, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 100 {
		t.Fatalf("restarted follower has %d rows, want 100", len(kvs))
	}
	seen := map[int64]bool{}
	for _, kv := range kvs {
		if seen[kv.Key] {
			t.Fatalf("duplicate key %d after resume", kv.Key)
		}
		seen[kv.Key] = true
	}
	tx.Abort()
}

// TestSlowSubscriberDisconnects pairs a healthy follower with a subscriber
// that stops reading its stream. The bounded-lag policy must cut the stalled
// subscriber (drop counter increments, primary keeps committing) without
// disturbing the healthy follower — and a drain afterwards must designate
// the live caught-up follower, not the most recently announced one.
func TestSlowSubscriberDisconnects(t *testing.T) {
	prim := routerOf(t, openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false))
	psrv, err := server.New(server.Config{Router: prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)

	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsh := openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false)
	f, err := repl.NewFollower(repl.Config{
		PrimaryAddr: pln.Addr().String(),
		Announce:    fln.Addr().String(),
		Shards:      []*engine.Facade{fsh.Facade},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.New(server.Config{Router: routerOf(t, fsh), Replica: f})
	if err != nil {
		t.Fatal(err)
	}
	fErr := serveOn(fsrv, fln)
	defer func() {
		fsrv.Shutdown(context.Background())
		<-fErr
	}()
	f.Run()
	defer f.Stop()

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	loadKeys(t, pc, 0, 10, "v")
	waitFor(t, 10*time.Second, "healthy follower to catch up", func() bool { return caughtUp(f) })

	// A raw subscriber that announces a bogus failover address — after the
	// healthy follower, so the old most-recent-announce policy would have
	// designated it — completes the handshake, then never reads again.
	stalled, err := net.Dial("tcp", pln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var sb wire.Buf
	sb.Bytes([]byte("127.0.0.1:1"))
	sb.U32(1)
	sb.U64(0)
	if err := wire.WriteFrame(stalled, uint8(wire.OpSubscribe), sb.B); err != nil {
		t.Fatal(err)
	}
	sr := bufio.NewReader(stalled)
	if code, _, err := wire.ReadFrame(sr); err != nil || wire.Code(code) != wire.CodeOK {
		t.Fatalf("stalled subscribe handshake: code %d err %v", code, err)
	}
	waitFor(t, 10*time.Second, "stalled subscriber to register", func() bool {
		return psrv.Stats().Subscribers == 2
	})

	// Push enough log volume to fill the stalled peer's socket buffers and
	// its 32-frame queue; after the 1 s stall the policy must cut it while
	// commits keep flowing. One batch a millisecond at most, so the stall
	// fits inside the batch budget however fast a commit is.
	big := make([]byte, 4096)
	for batch := int64(0); psrv.Stats().SubscriberDrops == 0; batch++ {
		if batch > 2000 {
			t.Fatal("slow subscriber was never dropped")
		}
		tx, err := pc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 8; i++ {
			if err := tx.Insert(1000+batch*8+i, big); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 10*time.Second, "stalled subscriber to be deregistered", func() bool {
		return psrv.Stats().Subscribers == 1
	})
	waitFor(t, 20*time.Second, "healthy follower to catch up past the load", func() bool { return caughtUp(f) })

	// Drain: the designated successor must be the live caught-up follower,
	// so it self-promotes; the stalled peer's bogus announce is ignored.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- psrv.Shutdown(context.Background()) }()
	waitFor(t, 10*time.Second, "healthy follower to promote", func() bool { return f.Promoted() })
	if err := <-shutdownDone; err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if err := <-pErr; err != nil {
		t.Fatalf("primary serve: %v", err)
	}
}

// TestPromotionUnderFanout drains a primary streaming to three announced
// followers: exactly one (the designated successor) promotes, the other two
// repoint their subscriptions at it, converge to zero lag, and serve the
// writes committed on the new primary.
func TestPromotionUnderFanout(t *testing.T) {
	prim := routerOf(t, openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false))
	psrv, err := server.New(server.Config{Router: prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)

	// Three followers, each announced and serving its own address.
	fs := make([]*repl.Follower, 3)
	fsrvs := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := 0; i < 3; i++ {
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = fln.Addr().String()
		sh := openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false)
		f, err := repl.NewFollower(repl.Config{
			PrimaryAddr: pln.Addr().String(),
			Announce:    addrs[i],
			Shards:      []*engine.Facade{sh.Facade},
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		fsrv, err := server.New(server.Config{Router: routerOf(t, sh), Replica: f})
		if err != nil {
			t.Fatal(err)
		}
		fErr := serveOn(fsrv, fln)
		t.Cleanup(func() {
			fsrv.Shutdown(context.Background())
			<-fErr
		})
		f.Run()
		t.Cleanup(f.Stop)
		fs[i] = f
		fsrvs[i] = fsrv
	}

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	loadKeys(t, pc, 0, 30, "v")
	for i, f := range fs {
		f := f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to catch up", i), func() bool { return caughtUp(f) })
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- psrv.Shutdown(context.Background()) }()
	waitFor(t, 10*time.Second, "exactly one follower to promote", func() bool {
		n := 0
		for _, f := range fs {
			if f.Promoted() {
				n++
			}
		}
		return n == 1
	})
	if err := <-shutdownDone; err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if err := <-pErr; err != nil {
		t.Fatalf("primary serve: %v", err)
	}

	promoted := -1
	for i, f := range fs {
		if f.Promoted() {
			promoted = i
		}
	}

	// The survivors must follow the successor, not promote themselves.
	for i, f := range fs {
		if i == promoted {
			continue
		}
		i, f := i, f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to repoint at the successor", i), func() bool {
			return f.PrimaryAddr() == addrs[promoted]
		})
		if f.Promoted() {
			t.Fatalf("follower %d promoted alongside the successor", i)
		}
	}

	// A write on the new primary reaches both remaining followers: lag
	// converges and routed reads see the row.
	nc, err := client.Dial(addrs[promoted], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	loadKeys(t, nc, 100, 110, "w")
	for i, f := range fs {
		if i == promoted {
			continue
		}
		i, f := i, f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to converge on the successor", i), func() bool { return caughtUp(f) })
		fc, err := client.Dial(addrs[i], client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// caughtUp compares against the follower's last-heard durable LSN,
		// which can predate the new commit — poll until the row replicates.
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to serve the post-failover row", i), func() bool {
			tx, err := fc.Begin()
			if err != nil {
				return false
			}
			defer tx.Abort()
			got, err := tx.Get(105)
			return err == nil && string(got) == "w105"
		})
		fc.Close()
	}
}

// fleet is an n-shard primary streaming to two followers, each behind its
// own server, and a client that routes reads to the followers.
type fleet struct {
	prim    *shard.Router
	psrv    *server.Server
	c       *client.Client
	fs      []*repl.Follower
	fshards [][]shard.Shard // fshards[i][s] is follower i's shard s
}

// routedFleet starts a fleet. walHook, when non-nil, runs with the shard's
// index and engine before every write to a primary shard's log device; an
// error fails the write.
func routedFleet(t *testing.T, n int, walHook func(s int, db *engine.DB) error) *fleet {
	t.Helper()
	pshards := make([]shard.Shard, n)
	for i := range pshards {
		walDev := device.NewWrap(device.NewMem(page.Size, 1<<14))
		pshards[i] = openPrimary(t, device.NewMem(page.Size, 1<<16), walDev, false)
		if walHook != nil {
			db := pshards[i].Facade.DB()
			walDev.SetWriteHook(func(int64) error { return walHook(i, db) })
		}
	}
	fl := &fleet{prim: routerOf(t, pshards...)}
	psrv, err := server.New(server.Config{Router: fl.prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)
	t.Cleanup(func() {
		psrv.Kill()
		<-pErr
	})
	fl.psrv = psrv

	fl.fs = make([]*repl.Follower, 2)
	fl.fshards = make([][]shard.Shard, 2)
	addrs := make([]string, 2)
	for i := range fl.fs {
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = fln.Addr().String()
		fshards := make([]shard.Shard, n)
		facades := make([]*engine.Facade, n)
		for j := range fshards {
			fshards[j] = openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false)
			facades[j] = fshards[j].Facade
		}
		f, err := repl.NewFollower(repl.Config{
			PrimaryAddr: pln.Addr().String(),
			Shards:      facades,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		fsrv, err := server.New(server.Config{Router: routerOf(t, fshards...), Replica: f})
		if err != nil {
			t.Fatal(err)
		}
		fErr := serveOn(fsrv, fln)
		t.Cleanup(func() {
			fsrv.Kill()
			<-fErr
		})
		f.Run()
		t.Cleanup(f.Stop)
		fl.fs[i] = f
		fl.fshards[i] = fshards
	}

	fl.c, err = client.Dial(pln.Addr().String(), client.Options{Replicas: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.c.Close() })
	return fl
}

// followerHas reports whether shard sh of follower f serves key with value
// want, read the way the follower's server reads: refresh, then a snapshot
// under the data lock.
func followerHas(t *testing.T, f *repl.Follower, sh shard.Shard, key int64, want string) bool {
	t.Helper()
	if err := f.Refresh(); err != nil {
		t.Fatal(err)
	}
	f.DataRLock()
	defer f.DataRUnlock()
	tx := sh.Facade.Begin()
	defer sh.Facade.Abort(tx)
	row, err := sh.Facade.Get(sh.Table, tx, key)
	return err == nil && string(row[1].([]byte)) == want
}

// TestReadYourWritesRouting drives a client configured with two replica
// addresses: every write is immediately followed by a routed read of the
// same key, which must never be stale — the COMMIT LSN vector gates which
// replica (if any) may serve it, with the primary as fallback. After the
// fleet converges, routed reads must actually land on replicas.
//
// In the cross-shard variant every write is a 2PC commit over two shards,
// read back on the participant: the shard whose outcome record is still
// waiting for a flush when COMMIT is acknowledged. A follower that already
// has the PREPARE there but not the outcome would serve the old snapshot, so
// the reply's LSN vector must reach past the outcome record, not just the
// durable LSN. Once the writes stop, the last one's outcome record has no
// later flush on the participant to ride: the lazy flush must make it
// durable, and every follower must then show the write, within a second.
//
// Last, the session's floor is its own writes, not everybody's: with both
// followers stopped where they cover this session's last commit, another
// client writes, and this session commits a read on the primary. That
// COMMIT sent no write and reads no reply, so the floor stays put and the
// next routed read still lands on a replica.
func TestReadYourWritesRouting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"one shard", 1}, {"cross-shard", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			fl := routedFleet(t, tc.shards, nil)
			c, fs := fl.c, fl.fs
			// keys[s] are the keys homed on shard s; a write inserts the i-th
			// key of every shard, the read takes the last shard's. A stale
			// read needs a follower to have applied the newest prepare and
			// decision within the microseconds before the read, so the rounds
			// are many.
			const rounds = 500
			keys := make([][]int64, tc.shards)
			for k := int64(0); len(keys[tc.shards-1]) < rounds || len(keys[0]) < rounds; k++ {
				s := shard.Of(k, tc.shards)
				keys[s] = append(keys[s], k)
			}
			read := keys[tc.shards-1]

			// Write-then-routed-read: the read must observe the write every
			// single time, no matter which server serves it or how far
			// replication lags.
			for i := 0; i < rounds; i++ {
				want := fmt.Sprintf("v%d", i)
				tx, err := c.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for s := range keys {
					if err := tx.Insert(keys[s][i], []byte(want)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				rtx, err := c.BeginRead()
				if err != nil {
					t.Fatal(err)
				}
				got, err := rtx.Get(read[i])
				if err != nil || string(got) != want {
					t.Fatalf("stale routed read of key %d: %q, %v", read[i], got, err)
				}
				if err := rtx.Insert(read[i], []byte("nope")); !errors.Is(err, engine.ErrReadOnly) {
					t.Fatalf("write on read-only tx: got %v, want engine.ErrReadOnly", err)
				}
				rtx.Abort()
			}
			if tc.shards > 1 {
				part := fl.prim.Shard(tc.shards - 1).Facade.DB().WAL()
				waitFor(t, time.Second, "the participant's last outcome record to become durable", func() bool {
					return part.Durable() == part.NextLSN()
				})
				last, want := read[rounds-1], fmt.Sprintf("v%d", rounds-1)
				for i, f := range fs {
					sh := fl.fshards[i][tc.shards-1]
					waitFor(t, time.Second, fmt.Sprintf("follower %d to show the last write", i), func() bool {
						return followerHas(t, f, sh, last, want)
					})
				}
			}

			// Once both replicas cover the session's commit point, routed
			// reads must leave the primary. Poll with fresh reads — each
			// BeginRead re-probes — until one probe of its own lands on a
			// replica: reads during the write rounds may have landed there
			// already, and only a replica that serves now covers the floor
			// the tail below depends on.
			for i, f := range fs {
				f := f
				waitFor(t, 10*time.Second, fmt.Sprintf("replica %d to catch up", i), func() bool { return caughtUp(f) })
			}
			waitFor(t, 10*time.Second, "a routed read to land on a replica", func() bool {
				_, before := c.ReadRouting()
				rtx, err := c.BeginRead()
				if err != nil {
					return false
				}
				got, err := rtx.Get(read[42])
				rtx.Abort()
				if err != nil || string(got) != "v42" {
					t.Fatalf("replica read of key %d: %q, %v", read[42], got, err)
				}
				_, after := c.ReadRouting()
				return after > before
			})
			primary, replica := c.ReadRouting()
			t.Logf("read routing: primary=%d replica=%d", primary, replica)
			if primary+replica < rounds+1 {
				t.Fatalf("routing counters lost reads: primary=%d replica=%d", primary, replica)
			}

			for _, f := range fs {
				f.Stop()
			}
			other, err := client.Dial(c.Addr(), client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			loadKeys(t, other, 1<<40, 1<<40+4, "other")
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Get(1 << 40); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rtx, err := c.BeginRead()
			if err != nil {
				t.Fatal(err)
			}
			got, err := rtx.Get(read[rounds-1])
			rtx.Abort()
			if want := fmt.Sprintf("v%d", rounds-1); err != nil || string(got) != want {
				t.Fatalf("routed read of the session's last write: %q, %v", got, err)
			}
			if _, r := c.ReadRouting(); r != replica+1 {
				t.Errorf("after a primary read committed over another client's write, the routed read went to the primary (replica reads %d, want %d)", r, replica+1)
			}
		})
	}
}

// TestPromoteCommitsParticipantWithoutOutcome kills a primary right after
// it acknowledged a cross-shard commit whose participant could write nothing
// after its prepare: the follower holds the participant's PREPARE and the
// coordinator's decision and commit record, but never the participant's
// outcome record. Promotion must commit both halves from the decision; a
// presumed abort of the participant would split an acknowledged commit.
func TestPromoteCommitsParticipantWithoutOutcome(t *testing.T) {
	var dead atomic.Bool
	fl := routedFleet(t, 2, func(s int, db *engine.DB) error {
		if s == 1 && dead.Load() && db.Stats().Prepares > 0 {
			return errors.New("injected WAL write failure")
		}
		return nil
	})
	keys := [2]int64{-1, -1}
	for k := int64(0); keys[0] < 0 || keys[1] < 0; k++ {
		if s := shard.Of(k, 2); keys[s] < 0 {
			keys[s] = k
		}
	}
	dead.Store(true)
	tx := fl.prim.Begin()
	for _, k := range keys {
		if err := tx.Insert(tuple.Row{k, []byte("both")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if part := fl.prim.Shard(1).Facade.DB().WAL(); part.Durable() == part.NextLSN() {
		t.Fatal("the participant's outcome record is durable; the test needs it pending")
	}
	f, fsh := fl.fs[0], fl.fshards[0]
	waitFor(t, 10*time.Second, "the follower to apply everything the primary made durable", func() bool {
		for s, applied := range f.AppliedLSNs() {
			if applied != uint64(fl.prim.Shard(s).Facade.DB().WAL().Durable()) {
				return false
			}
		}
		return true
	})

	fl.psrv.Kill()
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	for s, k := range keys {
		if !followerHas(t, f, fsh[s], k, "both") {
			t.Errorf("promoted shard %d does not show key %d of the acknowledged commit", s, k)
		}
	}
	if got := fsh[1].Facade.DB().Stats().InDoubtCommits; got != 1 {
		t.Errorf("the participant's promotion resolved %d in-doubt commits, want 1", got)
	}
}
