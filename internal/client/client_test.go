package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/wire"
)

// ---- an in-process server on 127.0.0.1:0 ----

func memShard(t *testing.T, walDev device.BlockDevice) shard.Shard {
	t.Helper()
	db, err := engine.Open(engine.DefaultOptions(device.NewMem(page.Size, 1<<16), walDev))
	if err != nil {
		t.Fatal(err)
	}
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	)
	tab, _, err := db.CreateTable(0, "kv", sch, "k")
	if err != nil {
		t.Fatal(err)
	}
	return shard.Shard{Facade: engine.NewFacade(db), Table: tab}
}

// startServer serves one in-memory shard; walDev nil means a plain one.
func startServer(t *testing.T, walDev device.BlockDevice, mut func(*server.Config)) (*server.Server, string) {
	t.Helper()
	if walDev == nil {
		walDev = device.NewMem(page.Size, 1<<14)
	}
	r, err := shard.NewRouter([]shard.Shard{memShard(t, walDev)})
	if err != nil {
		t.Fatal(err)
	}
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
		srv.Shutdown(context.Background()) // a no-op after an earlier Shutdown or Kill
		<-serveErr
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// put commits key=val in one transaction.
func put(t *testing.T, c *Client, key int64, val string) {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(key, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// rows scans everything in one transaction.
func rows(t *testing.T, c *Client) []KV {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(-1<<62, 1<<62, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return kvs
}

// ---- a connection that counts its socket writes ----

type countingConn struct {
	net.Conn
	writes atomic.Int64

	mu     sync.Mutex
	frames []string // the ops of each write, space-separated
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	var ops []string
	for r := bytes.NewReader(p); r.Len() > 0; {
		tag, _, err := wire.ReadFrame(r)
		if err != nil {
			ops = append(ops, "?")
			break
		}
		ops = append(ops, wire.Op(tag).String())
	}
	c.mu.Lock()
	c.frames = append(c.frames, strings.Join(ops, " "))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sent lists the frames of each socket write so far, one string a write.
func (c *countingConn) sent() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.frames...)
}

// poolCounted replaces c's idle pool by one fresh connection whose writes are
// counted.
func poolCounted(t *testing.T, c *Client) *countingConn {
	t.Helper()
	addr := c.Addr()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c.mu.Lock()
	for _, cn := range c.idle[addr] {
		cn.nc.Close()
	}
	c.idle[addr] = []*conn{{addr: addr, nc: cc, br: bufio.NewReader(cc), bw: bufio.NewWriter(cc)}}
	c.mu.Unlock()
	return cc
}

func idleCount(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle[c.addr])
}

// TestWriteBudget pins what a transaction costs on the wire: Begin sends
// nothing, BEGIN leaves with the first operation, so Begin + 2 x Update +
// Commit is 3 socket writes (it was 4), while the server still executes 4
// requests.
func TestWriteBudget(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	put(t, c, 1, "a")
	put(t, c, 2, "b")
	cc := poolCounted(t, c)
	before := srv.Stats().Requests

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != 0 {
		t.Fatalf("Begin alone wrote to the socket %d times, want 0", n)
	}
	if err := tx.Update(1, []byte("a2")); err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != 1 {
		t.Fatalf("BEGIN + first UPDATE took %d socket writes, want 1", n)
	}
	if err := tx.Update(2, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != 3 {
		t.Errorf("Begin + 2 x Update + Commit took %d socket writes, want 3", n)
	}
	if n := srv.Stats().Requests - before; n != 4 {
		t.Errorf("the server executed %d requests, want 4 (BEGIN, 2 x UPDATE, COMMIT)", n)
	}
	if got := rows(t, c); len(got) != 2 || string(got[0].Val) != "a2" || string(got[1].Val) != "b2" {
		t.Errorf("after the transaction: %v", got)
	}
}

// TestInsertBudget pins what inserts cost on the wire: behind the first
// operation an insert waits for nothing, so Begin + 100 x Insert + Commit is 4
// socket writes, each followed by the one wait it needs — BEGIN + the first
// INSERT, the next 64 INSERTs (the maxAhead settle), the last 35 (settled
// before COMMIT), COMMIT — while the server still executes all 102 requests.
// It was 101 round trips.
func TestInsertBudget(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	cc := poolCounted(t, c)
	before := srv.Stats().Requests

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		if err := tx.Insert(k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inserts := func(n int) string { return strings.TrimSpace(strings.Repeat("INSERT ", n)) }
	want := []string{"BEGIN INSERT", inserts(maxAhead), inserts(100 - 1 - maxAhead), "COMMIT"}
	if got := cc.sent(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Begin + 100 x Insert + Commit wrote %d times: %q, want %d writes: %q", len(got), got, len(want), want)
	}
	if n := srv.Stats().Requests - before; n != 102 {
		t.Errorf("the server executed %d requests, want 102 (BEGIN, 100 x INSERT, COMMIT)", n)
	}
	got := rows(t, c)
	if len(got) != 100 {
		t.Fatalf("after the transaction: %d rows, want 100", len(got))
	}
	for i, kv := range got {
		if kv.Key != int64(i) || string(kv.Val) != fmt.Sprint(i) {
			t.Fatalf("row %d is %d=%q", i, kv.Key, kv.Val)
		}
	}
}

// stopLazyFlush stops the lazy-end timer of c's one pooled connection and
// reports whether it had not fired yet.
func stopLazyFlush(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cn := c.idle[c.addr][0]
	return cn.flushTimer != nil && cn.flushTimer.Stop()
}

// TestReadBudget pins what a transaction that sends no write costs on the
// wire: Begin + 2 x Get + Commit is 2 socket writes, because its COMMIT is
// not flushed on its own — it leaves in the same write as the next
// transaction's BEGIN and first operation. A transaction that sent a write,
// even one that failed, still waits for its COMMIT reply.
func TestReadBudget(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	put(t, c, 1, "a")
	put(t, c, 2, "b")

	// Left alone, the idle connection flushes the COMMIT by itself after
	// lazyEndDelay. Stop that as Commit returns; a machine too slow to gets
	// another try.
	var cc *countingConn
	for attempt := 1; ; attempt++ {
		cc = poolCounted(t, c)
		before := srv.Stats().Requests
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{1, 2} {
			if _, err := tx.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("write-free Commit: %v", err)
		}
		if !stopLazyFlush(c) {
			if attempt == 20 {
				t.Fatal("the lazy flush fired before Commit's caller could stop it, 20 times")
			}
			continue
		}
		if n := srv.Stats().Requests - before; n != 3 {
			t.Errorf("the server executed %d requests by Commit's return, want 3 (BEGIN, 2 x GET)", n)
		}
		break
	}
	if got := cc.sent(); len(got) != 2 || got[0] != "BEGIN GET" || got[1] != "GET" {
		t.Errorf("Begin + 2 x Get + Commit wrote %q, want 2 writes: [BEGIN GET] [GET]", got)
	}
	if n := srv.Stats().OpenTxns; n != 1 {
		t.Errorf("%d open transactions with the COMMIT still buffered, want 1", n)
	}

	// The next transaction's first write carries the COMMIT.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Get(1); err != nil || string(v) != "a" {
		t.Fatalf("Get behind the owed COMMIT reply: %q, %v", v, err)
	}
	if got := cc.sent(); len(got) != 3 || got[2] != "COMMIT BEGIN GET" {
		t.Errorf("writes %q, want the third to be [COMMIT BEGIN GET]", got)
	}
	if n := srv.Stats().OpenTxns; n != 1 {
		t.Errorf("%d open transactions once the COMMIT arrived, want 1 (this one)", n)
	}

	// An Update that failed was still sent: COMMIT waits for its reply.
	if err := tx.Update(99, []byte("x")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Update of a missing key: %v, want not found", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := cc.sent(); len(got) != 5 || got[3] != "UPDATE" || got[4] != "COMMIT" {
		t.Errorf("writes %q, want [UPDATE] [COMMIT] last", got)
	}
	if n := srv.Stats().OpenTxns; n != 0 {
		t.Errorf("%d open transactions once Commit returned, want 0: it did not wait", n)
	}
}

// TestLazyEndReachesIdleServer runs one write-free transaction and then
// nothing: no request follows to carry its COMMIT, so the idle connection
// flushes it, and the server ends the transaction within the lazy bound.
func TestLazyEndReachesIdleServer(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	put(t, c, 1, "a")
	for _, finish := range []func(*Tx) error{(*Tx).Commit, (*Tx).Abort} {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get(1); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := finish(tx); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the idle connection to deliver the end", func() bool { return srv.Stats().OpenTxns == 0 })
		if d := time.Since(start); d > lazyEndDelay+250*time.Millisecond {
			t.Errorf("the server ended the transaction %v after the client did, want about %v", d, lazyEndDelay)
		}
	}
}

// TestLazyFlushRacesNextTransaction alternates short transactions with idle
// gaps around the lazy bound, so the next transaction takes the connection
// before, while and after its timer flushes the last end. Run under -race:
// the timer never writes under a transaction, and it never holds the
// connection from the pool, so no transaction dials a second one. Close then
// delivers the last end.
func TestLazyFlushRacesNextTransaction(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	put(t, c, 1, "a")
	dialed := srv.Stats().Connections
	for i := 0; i < 300; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get(1); err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
		if i%4 == 3 {
			if err := tx.Update(1, []byte(fmt.Sprint(i))); err != nil {
				t.Fatalf("transaction %d: %v", i, err)
			}
		}
		end := tx.Commit
		if i%2 == 1 {
			end = tx.Abort
		}
		if err := end(); err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
		time.Sleep(time.Duration(i%5) * lazyEndDelay / 2) // 0 to 2 ms
	}
	if n := srv.Stats().Connections - dialed; n != 0 {
		t.Errorf("%d connections dialed beside the pooled one", n)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitUntil(t, "Close to leave no transaction open", func() bool { return srv.Stats().OpenTxns == 0 })
}

// TestScanValuesAreCapped pins that Scan's values, which share one reply,
// each end where the value does: appending to one leaves the next intact.
func TestScanValuesAreCapped(t *testing.T) {
	_, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	put(t, c, 1, "a")
	put(t, c, 2, "b")
	got := rows(t, c)
	if len(got) != 2 {
		t.Fatalf("scanned %v", got)
	}
	for _, kv := range got {
		if cap(kv.Val) != len(kv.Val) {
			t.Errorf("key %d: value of %d bytes has room for %d: an append to it writes into the next entry", kv.Key, len(kv.Val), cap(kv.Val))
		}
	}
	_ = append(got[0].Val, "clobber"...)
	if string(got[0].Val) != "a" || string(got[1].Val) != "b" {
		t.Errorf("an append to one value changed the scan: %q", got)
	}
}

// TestEmptyTransactionSendsNothing finishes transactions that never ran an
// operation: no frame leaves, the server never hears of them, and the pooled
// connection is still there for the next one.
func TestEmptyTransactionSendsNothing(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	cc := poolCounted(t, c)
	before := srv.Stats().Requests

	for _, finish := range []func(*Tx) error{(*Tx).Commit, (*Tx).Abort} {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := finish(tx); err != nil {
			t.Fatalf("finishing an empty transaction: %v", err)
		}
		if err := finish(tx); err == nil {
			t.Error("a finished transaction finished again without an error")
		}
		if _, err := tx.Get(1); err == nil {
			t.Error("an operation on a finished transaction succeeded")
		}
	}
	if n := cc.writes.Load(); n != 0 {
		t.Errorf("%d socket writes for two empty transactions, want 0", n)
	}
	if n := srv.Stats().Requests - before; n != 0 {
		t.Errorf("the server executed %d requests, want 0", n)
	}
	if n := idleCount(c); n != 1 {
		t.Errorf("%d idle connections after two empty transactions, want the 1 there was", n)
	}
	put(t, c, 1, "still works")
	if n := cc.writes.Load(); n != 2 {
		t.Errorf("the next transaction took %d writes on the pooled connection, want 2", n)
	}
}

// TestSnapshotTakenAtFirstOperation pins the visibility rule the deferred
// BEGIN relies on: the snapshot is the first operation's (the router opens a
// shard's sub-transaction on first touch, as PostgreSQL takes its snapshot at
// the first statement), so a commit that lands between Begin and the first
// operation is visible and one that lands after it is not — whether or not
// BEGIN had its own round trip.
func TestSnapshotTakenAtFirstOperation(t *testing.T) {
	_, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{})
	put(t, c, 1, "one")

	reader, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, 2, "between Begin and the first operation")
	if _, err := reader.Get(1); err != nil {
		t.Fatal(err)
	}
	put(t, c, 3, "after the first operation")
	if _, err := reader.Get(2); err != nil {
		t.Errorf("a row committed before the first operation is invisible: %v", err)
	}
	if _, err := reader.Get(3); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("a row committed after the first operation: %v, want not found", err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

// subscribeAs opens a raw replication stream on the primary that announces
// follower as the failover target, and discards what it streams.
func subscribeAs(t *testing.T, primary, follower string) {
	t.Helper()
	nc, err := net.Dial("tcp", primary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	var b wire.Buf
	b.Bytes([]byte(follower))
	b.U32(1) // shards
	b.U64(0) // resume cursor
	if err := wire.WriteFrame(nc, uint8(wire.OpSubscribe), b.B); err != nil {
		t.Fatal(err)
	}
	if tag, p, err := wire.ReadFrame(nc); err != nil || wire.Code(tag) != wire.CodeOK {
		t.Fatalf("SUBSCRIBE: %v %s %q", err, wire.Code(tag), p)
	}
	go func() {
		for {
			if _, _, err := wire.ReadFrame(nc); err != nil {
				return
			}
		}
	}()
}

// TestFailoverMovesToFirstOperation drains a primary that names a follower:
// Begin still succeeds (it asks nobody), the first Insert meets the refusal,
// repoints the client and lands on the follower.
func TestFailoverMovesToFirstOperation(t *testing.T) {
	primary, paddr := startServer(t, nil, nil)
	_, faddr := startServer(t, nil, nil) // stands in for a promoted follower
	c := dial(t, paddr, Options{})
	put(t, c, 1, "on the primary")
	subscribeAs(t, paddr, faddr)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- primary.Shutdown(context.Background()) }()
	waitUntil(t, "the primary to start draining", func() bool { return primary.Ready() != nil })

	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin against a draining primary: %v (it sends nothing and cannot be refused)", err)
	}
	if got := c.Addr(); got != paddr {
		t.Fatalf("Begin moved the client to %s", got)
	}
	if err := tx.Insert(2, []byte("on the follower")); err != nil {
		t.Fatalf("first Insert across the handoff: %v", err)
	}
	if got := c.Addr(); got != faddr {
		t.Fatalf("after the first operation the client targets %s, want the follower %s", got, faddr)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if got := rows(t, c); len(got) != 1 || got[0].Key != 2 {
		t.Fatalf("the follower holds %v, want only key 2", got)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedWAL blocks page writes until the gate closes, pinning a DDL — and
// the admission slot it holds — mid-flush.
type gatedWAL struct {
	device.BlockDevice
	gate chan struct{}
}

func (d *gatedWAL) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	<-d.gate
	return d.BlockDevice.WritePage(at, pageNo, p)
}

// TestRefusedBeginRepeatsThePair saturates a MaxInFlight=1 server: the BEGIN
// in front of the first Insert is refused, so nothing ran; the client backs
// off and sends the whole pair again, and once the slot frees the
// transaction commits — exactly once.
func TestRefusedBeginRepeatsThePair(t *testing.T) {
	gate := make(chan struct{})
	wal := &gatedWAL{BlockDevice: device.NewMem(page.Size, 1<<14), gate: gate}
	srv, addr := startServer(t, wal, func(cfg *server.Config) { cfg.MaxInFlight = 1 })

	// A's CREATE TABLE sits in the gated flush holding the only slot (a
	// COMMIT would not: ending a transaction takes no slot).
	a := dial(t, addr, Options{})
	ddlDone := make(chan error, 1)
	go func() {
		ddlDone <- a.CreateTable("held", tuple.NewSchema(tuple.Column{Name: "k", Type: tuple.TypeInt64}), "k")
	}()
	waitUntil(t, "the DDL to take the slot", func() bool { return srv.Stats().Requests == 1 })

	b := dial(t, addr, Options{})
	go func() {
		// Free the slot once B has been turned away a few times: 6 refused
		// requests are 3 refused pairs, leaving 4 of the 7 attempts.
		for srv.Stats().Overloaded < 6 {
			time.Sleep(100 * time.Microsecond)
		}
		close(gate)
	}()
	txb, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txb.Insert(2, []byte("b")); err != nil {
		t.Fatalf("first Insert through the overload: %v", err)
	}
	if err := txb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-ddlDone; err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().Overloaded; n < 6 {
		t.Fatalf("only %d requests were refused: the overload never happened", n)
	}
	// An Insert that had run twice would show as two rows of key 2.
	if got := rows(t, b); len(got) != 1 || got[0].Key != 2 {
		t.Fatalf("rows %v, want key 2 once", got)
	}
	// rows' write-free COMMIT does not wait for its reply: it ends on the
	// server within the lazy-flush bound.
	waitUntil(t, "no transaction to be left open by the refused attempts", func() bool { return srv.Stats().OpenTxns == 0 })
}

// TestOverloadRetryBudget pins the retry budget: with the server's only
// admission slot held, a control op is sent 7 times — once, then 6 retries —
// and the typed overload error surfaces.
func TestOverloadRetryBudget(t *testing.T) {
	gate := make(chan struct{})
	wal := &gatedWAL{BlockDevice: device.NewMem(page.Size, 1<<14), gate: gate}
	srv, addr := startServer(t, wal, func(cfg *server.Config) { cfg.MaxInFlight = 1 })
	sch := tuple.NewSchema(tuple.Column{Name: "k", Type: tuple.TypeInt64})

	a := dial(t, addr, Options{})
	ddlDone := make(chan error, 1)
	go func() { ddlDone <- a.CreateTable("held", sch, "k") }()
	waitUntil(t, "the DDL to take the slot", func() bool { return srv.Stats().Requests == 1 })

	err := dial(t, addr, Options{}).CreateTable("refused", sch, "k")
	close(gate)
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("CreateTable beside the held slot: %v, want OVERLOADED", err)
	}
	if n := srv.Stats().Overloaded; n != 7 {
		t.Fatalf("the server refused %d requests, want 7: one attempt and 6 retries", n)
	}
	if err := <-ddlDone; err != nil {
		t.Fatal(err)
	}
}

// TestDeadPooledConnection kills the pooled connection between two
// transactions. The first operation of the next one finds it dead, redials
// and runs; with the server gone for good the reconnect budget runs out and
// the typed ErrNoPrimary surfaces — from the first operation, not from Begin.
func TestDeadPooledConnection(t *testing.T) {
	srv, addr := startServer(t, nil, nil)
	c := dial(t, addr, Options{PoolSize: 1})
	put(t, c, 1, "a")

	c.mu.Lock()
	c.idle[addr][0].nc.Close()
	c.mu.Unlock()
	put(t, c, 2, "b") // Begin takes nothing; the Insert redials
	if got := rows(t, c); len(got) != 2 {
		t.Fatalf("rows %v, want 2", got)
	}

	srv.Kill()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin with the server gone: %v (it sends nothing)", err)
	}
	_, err = tx.Get(1)
	if !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("first operation with the server gone: %v, want ErrNoPrimary", err)
	}
	if err := tx.Abort(); err != nil {
		t.Errorf("aborting a transaction that never started: %v", err)
	}
}

// ---- a scripted server: records every frame, answers as told ----

type gotFrame struct {
	conn    int // which accepted connection, from 0
	op      wire.Op
	traced  bool   // arrived in a TRACE envelope
	traceID uint64 // of that envelope
	handle  uint64 // first 8 payload bytes (0 for BEGIN)
}

type scriptedServer struct {
	addr string
	// reply answers one frame; ok=false hangs up without answering.
	reply func(f gotFrame) (code wire.Code, payload []byte, ok bool)

	mu     sync.Mutex
	frames []gotFrame
}

func startScripted(t *testing.T, reply func(gotFrame) (wire.Code, []byte, bool)) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{addr: ln.Addr().String(), reply: reply}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(10 * time.Second))
				s.serve(n, nc)
			}(n)
		}
	}()
	return s
}

func (s *scriptedServer) serve(n int, nc net.Conn) {
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	for {
		tag, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		f := gotFrame{conn: n, op: wire.Op(tag)}
		if f.op == wire.OpTrace {
			f.traced = true
			f.traceID, _, _, f.op, payload, _ = wire.DecodeTraceEnvelope(payload)
		}
		if len(payload) >= 8 {
			r := wire.Reader{B: payload}
			f.handle, _ = r.U64()
		}
		s.mu.Lock()
		s.frames = append(s.frames, f)
		s.mu.Unlock()
		code, resp, ok := s.reply(f)
		if !ok {
			return
		}
		if wire.WriteFrame(bw, uint8(code), resp) != nil {
			return
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}

func (s *scriptedServer) seen() []gotFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]gotFrame(nil), s.frames...)
}

func handleReply(h uint64) []byte {
	var b wire.Buf
	b.U64(h)
	return b.B
}

// ops renders frames as "conn:OP/handle" for comparison.
func ops(frames []gotFrame) []string {
	out := make([]string, len(frames))
	for i, f := range frames {
		out[i] = fmt.Sprintf("%d:%s/%d", f.conn, f.op, f.handle)
	}
	return out
}

func sameOps(got []gotFrame, want ...string) bool {
	g := ops(got)
	if len(g) != len(want) {
		return false
	}
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// TestUnknownTxBehindGoodBeginIsTheOpsError: BEGIN succeeded, yet the
// operation behind it answered UNKNOWN_TX. That is the operation's error —
// nothing is sent again — and the transaction BEGIN opened stays abortable
// under its real handle.
func TestUnknownTxBehindGoodBeginIsTheOpsError(t *testing.T) {
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(5), true
		case f.handle == 0:
			return wire.CodeUnknownTx, []byte("unknown transaction handle"), true
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{PoolSize: 1})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("x")); !errors.Is(err, wire.ErrUnknownTx) {
		t.Fatalf("Update behind a good BEGIN: %v, want UNKNOWN_TX", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "0:UPDATE/0", "0:ABORT/5") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestOverloadedOperationBehindGoodBegin: BEGIN got through, the operation
// behind it was refused by admission control. The transaction exists, so
// only the operation goes again, under its real handle.
func TestOverloadedOperationBehindGoodBegin(t *testing.T) {
	refused := false
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(7), true
		case f.op == wire.OpUpdate && !refused:
			refused = true
			return wire.CodeOverloaded, []byte("overloaded"), true
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "0:UPDATE/0", "0:UPDATE/7", "0:COMMIT/7") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestOverloadedInsertAheadIsResent: an insert sent ahead was refused by
// admission control, which executes nothing, so settling sends it again
// alone under the transaction's handle, and COMMIT follows.
func TestOverloadedInsertAheadIsResent(t *testing.T) {
	refused := false
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(7), true
		case f.op == wire.OpInsert && f.handle == 7 && !refused:
			refused = true
			return wire.CodeOverloaded, []byte("overloaded"), true
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2; k++ {
		if err := tx.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "0:INSERT/0", "0:INSERT/7", "0:INSERT/7", "0:COMMIT/7") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestFailedInsertAheadDoomsTheTransaction: an insert sent ahead failed. The
// next call that waits returns that failure without sending anything, so does
// every later call, and Commit ends the transaction with ABORT, not COMMIT.
func TestFailedInsertAheadDoomsTheTransaction(t *testing.T) {
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(7), true
		case f.op == wire.OpInsert && f.handle == 7:
			return wire.CodeInternal, []byte("no room"), true
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2; k++ {
		if err := tx.Insert(k, []byte("x")); err != nil {
			t.Fatalf("Insert %d: %v, want nil: the second goes ahead", k, err)
		}
	}
	_, failed := tx.Get(1)
	if failed == nil || !strings.Contains(failed.Error(), "no room") {
		t.Fatalf("Get behind a failed insert: %v, want the insert's error", failed)
	}
	if err := tx.Insert(3, []byte("x")); !errors.Is(err, failed) {
		t.Errorf("Insert in a doomed transaction: %v, want the insert's error", err)
	}
	if err := tx.Commit(); !errors.Is(err, failed) || errors.Is(err, ErrInDoubt) {
		t.Errorf("Commit of a doomed transaction: %v, want the insert's error", err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "0:INSERT/0", "0:INSERT/7", "0:ABORT/7") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestConnectionLostWithInsertsAheadIsNotInDoubt: the server hangs up on an
// insert sent ahead. Commit fails with the transport error, and it is not
// ErrInDoubt although the first insert succeeded: no COMMIT was sent.
func TestConnectionLostWithInsertsAheadIsNotInDoubt(t *testing.T) {
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(7), true
		case f.op == wire.OpInsert && f.handle == 7:
			return 0, nil, false
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2; k++ {
		if err := tx.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	err = tx.Commit()
	if err == nil || errors.Is(err, ErrInDoubt) {
		t.Errorf("Commit after the connection died under an insert: %v, want a transport error, not in doubt", err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "0:INSERT/0", "0:INSERT/7") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestConnectionLostUnderAnUpdateIsNotInDoubt: the server hangs up on the
// transaction's second UPDATE, after the first one wrote. The session and its
// transaction are gone, and no COMMIT can leave, so Commit fails with the
// transport error and not ErrInDoubt.
func TestConnectionLostUnderAnUpdateIsNotInDoubt(t *testing.T) {
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(7), true
		case f.op == wire.OpUpdate && f.handle == 7:
			return 0, nil, false
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(2, []byte("x")); err == nil {
		t.Fatal("Update answered by a hang-up succeeded")
	}
	if err := tx.Commit(); err == nil || errors.Is(err, ErrInDoubt) {
		t.Errorf("Commit on the broken connection: %v, want a transport error, not in doubt", err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "0:UPDATE/0", "0:UPDATE/7") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestConnectionLostBeforeRepliesRepeatsThePair: the server takes BEGIN and
// the operation and hangs up without answering. Its session's transactions
// die with the connection, so the client runs the pair again on a fresh one.
func TestConnectionLostBeforeRepliesRepeatsThePair(t *testing.T) {
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch {
		case f.conn == 0:
			return 0, nil, false // Dial's eager connection, pooled: dies on first use
		case f.op == wire.OpBegin:
			return wire.CodeOK, handleReply(3), true
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("x")); err != nil {
		t.Fatalf("Update across a lost connection: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.seen(); !sameOps(got, "0:BEGIN/0", "1:BEGIN/0", "1:UPDATE/0", "1:COMMIT/3") {
		t.Errorf("frames %v", ops(got))
	}
}

// TestTracedTransactionStitches: a sampled transaction still wraps BEGIN —
// now travelling with the first operation — and COMMIT in TRACE envelopes
// under one client-minted id, the operation between them stays bare, and a
// real server records both spans in one trace.
func TestTracedTransactionStitches(t *testing.T) {
	s := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		if f.op == wire.OpBegin {
			return wire.CodeOK, handleReply(1), true
		}
		return wire.CodeOK, nil, true
	})
	c := dial(t, s.addr, Options{TraceSample: 1})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := s.seen()
	if !sameOps(got, "0:BEGIN/0", "0:UPDATE/0", "0:COMMIT/1") {
		t.Fatalf("frames %v", ops(got))
	}
	if !got[0].traced || got[1].traced || !got[2].traced {
		t.Errorf("envelopes on BEGIN/UPDATE/COMMIT: %v/%v/%v, want true/false/true", got[0].traced, got[1].traced, got[2].traced)
	}
	if got[0].traceID == 0 || got[0].traceID != got[2].traceID {
		t.Errorf("BEGIN rides trace %016x, COMMIT %016x: want one nonzero id", got[0].traceID, got[2].traceID)
	}

	tracer := obs.NewTracer(0) // no server-side sampling: only carried contexts
	_, addr := startServer(t, nil, func(cfg *server.Config) { cfg.Tracer = tracer })
	rc := dial(t, addr, Options{TraceSample: 1})
	put(t, rc, 1, "traced")
	byName := map[string]uint64{}
	for _, rec := range tracer.Snapshot() {
		byName[rec.Name] = rec.TraceID
	}
	if byName["BEGIN"] == 0 || byName["BEGIN"] != byName["COMMIT"] {
		t.Errorf("server spans BEGIN=%016x COMMIT=%016x: want both under one trace id", byName["BEGIN"], byName["COMMIT"])
	}
	if _, traced := byName["INSERT"]; traced {
		t.Error("the bare INSERT between them was traced")
	}
}

// TestReplicaRefusalFallsBackToPrimary: BeginRead probed a follower and
// pinned the read to it, but by the time the BEGIN arrives there — behind the
// first Get — the follower refuses. The read runs on the primary instead, as
// it did when BeginRead sent the BEGIN itself, and the routing counters say
// so.
func TestReplicaRefusalFallsBackToPrimary(t *testing.T) {
	replica := startScripted(t, func(f gotFrame) (wire.Code, []byte, bool) {
		switch f.op {
		case wire.OpReplLSN:
			return wire.CodeOK, nil, true // an empty vector covers a session that committed nothing
		case wire.OpBegin:
			return wire.CodeShuttingDown, []byte("shutting down"), true
		}
		return wire.CodeUnknownTx, []byte("unknown transaction handle"), true
	})
	_, addr := startServer(t, nil, nil)
	put(t, dial(t, addr, Options{}), 1, "primary")

	c := dial(t, addr, Options{Replicas: []string{replica.addr}})
	tx, err := c.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	if p, r := c.ReadRouting(); p != 0 || r != 1 {
		t.Fatalf("after the probe: %d primary / %d replica reads, want 0/1", p, r)
	}
	got, err := tx.Get(1)
	if err != nil || string(got) != "primary" {
		t.Fatalf("Get after the follower refused BEGIN: %q, %v", got, err)
	}
	if err := tx.Insert(2, nil); !errors.Is(err, engine.ErrReadOnly) {
		t.Errorf("a BeginRead transaction accepted a write after falling back: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if p, r := c.ReadRouting(); p != 1 || r != 0 {
		t.Errorf("after the fallback: %d primary / %d replica reads, want 1/0", p, r)
	}
	if got := replica.seen(); !sameOps(got, "0:REPL_LSN/0", "0:BEGIN/0", "0:GET/0") {
		t.Errorf("the follower saw %v", ops(got))
	}
}
