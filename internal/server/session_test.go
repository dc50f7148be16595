package server

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/wire"
)

// newTestSession serves a one-shard in-memory kv table through a session
// with no connection: requests go straight to serve, replies to w.
func newTestSession(t *testing.T, w io.Writer) *session {
	t.Helper()
	db, err := engine.Open(engine.DefaultOptions(device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14)))
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
	router, err := shard.NewRouter([]shard.Shard{{Facade: engine.NewFacade(db), Table: tab}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Router: router})
	if err != nil {
		t.Fatal(err)
	}
	return &session{
		srv: srv,
		br:  bufio.NewReader(strings.NewReader("")),
		bw:  bufio.NewWriter(w),
		txs: map[uint64]*shard.Txn{},
	}
}

// serveOK runs one request and fails the test unless serve succeeds.
func serveOK(t *testing.T, c *session, op wire.Op, fn func(b *wire.Buf)) {
	t.Helper()
	var b wire.Buf
	if fn != nil {
		fn(&b)
	}
	if err := c.serve(op, b.B, obs.SpanContext{}); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
}

// load commits n rows of size-byte values under keys base, base+1, ...
func load(t *testing.T, c *session, base int64, n, size int) {
	t.Helper()
	serveOK(t, c, wire.OpBegin, nil)
	for i := int64(0); i < int64(n); i++ {
		serveOK(t, c, wire.OpInsert, func(b *wire.Buf) {
			b.U64(0)
			b.I64(base + i)
			b.Bytes(bytes.Repeat([]byte{byte(i)}, size))
		})
	}
	serveOK(t, c, wire.OpCommit, func(b *wire.Buf) { b.U64(0) })
}

// scanRequest is a SCAN of [lo, hi] under handle h.
func scanRequest(h uint64, lo, hi int64) []byte {
	var b wire.Buf
	b.U64(h)
	b.I64(lo)
	b.I64(hi)
	b.U32(0)
	return b.B
}

// TestScanReplyAllocBudget pins the session's half of a scan's cost: once
// warm, a 128-row SCAN allocates as often with 4000-byte values (a 514 KB
// reply) as with 100-byte ones (14 KB). Every allocation left is the engine's
// per row; none comes from regrowing the reply.
func TestScanReplyAllocBudget(t *testing.T) {
	c := newTestSession(t, io.Discard)
	const rows = 128
	load(t, c, 1<<20, rows, 100)
	load(t, c, 2<<20, rows, 4000)
	serveOK(t, c, wire.OpBegin, nil) // handle 3: a reader that sees both

	allocs := func(base int64) float64 {
		req := scanRequest(3, base, base+rows-1)
		serve := func() {
			if err := c.serve(wire.OpScan, req, obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
		}
		serve() // warm: the reply buffer grows to this reply's size
		// The fewest of a few measurements: the process-wide malloc count
		// also sees goroutines earlier tests left behind.
		least := testing.AllocsPerRun(10, serve)
		for i := 0; i < 2; i++ {
			least = min(least, testing.AllocsPerRun(10, serve))
		}
		return least
	}
	small, large := allocs(1<<20), allocs(2<<20)
	if large > small {
		t.Errorf("a 128-row SCAN allocates %.0f times with 4000-byte values, %.0f with 100-byte ones: the reply path allocates by size",
			large, small)
	}
}

// TestSessionBufferBudget: a reply or a request past maxSessionBuf is served
// from a buffer of its own, which the session lets go once the reply is
// written; a normal reply after it grows a normal buffer again.
func TestSessionBufferBudget(t *testing.T) {
	var out bytes.Buffer
	c := newTestSession(t, &out)
	const rows = 300 // 300 × 4000 bytes: a reply of 1.2 MB
	load(t, c, 0, rows, 4000)
	serveOK(t, c, wire.OpBegin, nil)

	out.Reset()
	if err := c.serve(wire.OpScan, scanRequest(0, 0, rows-1), obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	tag, reply, err := wire.ReadFrame(&out)
	if err != nil || wire.Code(tag) != wire.CodeOK || len(reply) <= maxSessionBuf {
		t.Fatalf("big SCAN answered %s with %d bytes (%v), want OK over %d bytes", wire.Code(tag), len(reply), err, maxSessionBuf)
	}
	if cap(c.out.B) > maxSessionBuf {
		t.Fatalf("session keeps a %d-byte reply buffer after the big reply, cap is %d", cap(c.out.B), maxSessionBuf)
	}

	// A request past the cap, read into the request buffer as the loop would:
	// the engine refuses a value no page holds, and the buffer goes with the
	// reply.
	var big wire.Buf
	big.U64(0)
	big.I64(rows)
	big.Bytes(make([]byte, maxSessionBuf))
	c.in = big.B
	if err := c.serve(wire.OpInsert, c.in, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if cap(c.in) > maxSessionBuf || cap(c.out.B) > maxSessionBuf {
		t.Fatalf("after a %d-byte request the session keeps %d request and %d reply bytes, cap is %d",
			len(big.B), cap(c.in), cap(c.out.B), maxSessionBuf)
	}

	if err := c.serve(wire.OpScan, scanRequest(0, 0, 9), obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if cap(c.out.B) == 0 {
		t.Fatal("a normal reply after the big ones left no reply buffer to reuse")
	}
}
