package server_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"sias/internal/tuple"
	"sias/internal/wire"
)

// rawSession speaks the wire protocol frame by frame, so a test decides what
// shares a TCP segment and sees every reply code as it arrives.
type rawSession struct {
	t  *testing.T
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawSession{t: t, nc: nc}
}

type rawFrame struct {
	op      wire.Op
	payload []byte
}

// kvFrame builds a (handle, key[, val]) request.
func kvFrame(op wire.Op, handle uint64, key int64, val []byte) rawFrame {
	var b wire.Buf
	b.U64(handle)
	b.I64(key)
	if val != nil {
		b.Bytes(val)
	}
	return rawFrame{op, b.B}
}

// endFrame builds a COMMIT or ABORT.
func endFrame(op wire.Op, handle uint64) rawFrame {
	var b wire.Buf
	b.U64(handle)
	return rawFrame{op, b.B}
}

// send puts all frames on the wire in one write and returns the reply code
// and payload of each, in order.
func (s *rawSession) send(frames ...rawFrame) ([]wire.Code, [][]byte) {
	s.t.Helper()
	var seg bytes.Buffer
	for _, f := range frames {
		if err := wire.WriteFrame(&seg, uint8(f.op), f.payload); err != nil {
			s.t.Fatal(err)
		}
	}
	if _, err := s.nc.Write(seg.Bytes()); err != nil {
		s.t.Fatal(err)
	}
	codes := make([]wire.Code, len(frames))
	payloads := make([][]byte, len(frames))
	for i := range frames {
		tag, p, err := wire.ReadFrame(s.nc)
		if err != nil {
			s.t.Fatalf("reply %d of %d: %v", i+1, len(frames), err)
		}
		codes[i], payloads[i] = wire.Code(tag), p
	}
	return codes, payloads
}

// one sends a single frame and requires the given reply code.
func (s *rawSession) one(f rawFrame, want wire.Code) []byte {
	s.t.Helper()
	codes, payloads := s.send(f)
	if codes[0] != want {
		s.t.Fatalf("%s answered %s %q, want %s", f.op, codes[0], payloads[0], want)
	}
	return payloads[0]
}

func (s *rawSession) begin() uint64 {
	s.t.Helper()
	r := wire.Reader{B: s.one(rawFrame{wire.OpBegin, nil}, wire.CodeOK)}
	h, err := r.U64()
	if err != nil || h == 0 {
		s.t.Fatalf("BEGIN handle %d, %v: handles start at 1", h, err)
	}
	return h
}

// TestHandleZero pins the one protocol rule a deferred BEGIN rests on: handle
// 0 is the transaction of the most recent BEGIN on the connection, and of
// nothing else — not before any BEGIN, not after that transaction finished.
func TestHandleZero(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 1), nil)
	s := dialRaw(t, addr)

	s.one(kvFrame(wire.OpGet, 0, 1, nil), wire.CodeUnknownTx) // no BEGIN yet
	s.one(endFrame(wire.OpCommit, 0), wire.CodeUnknownTx)

	h := s.begin()
	s.one(kvFrame(wire.OpInsert, 0, 1, []byte("zero")), wire.CodeOK) // handle 0 = h
	var got wire.Reader
	got.B = s.one(kvFrame(wire.OpGet, h, 1, nil), wire.CodeOK)
	if v, _ := got.Bytes(); string(v) != "zero" {
		t.Fatalf("an insert under handle 0 is not in the transaction BEGIN opened: %q", v)
	}
	s.one(endFrame(wire.OpCommit, 0), wire.CodeOK)

	s.one(kvFrame(wire.OpGet, 0, 1, nil), wire.CodeUnknownTx) // that transaction is over
	s.one(endFrame(wire.OpAbort, 0), wire.CodeUnknownTx)

	// A second BEGIN moves handle 0 on; the first transaction keeps its own.
	h1 := s.begin()
	h2 := s.begin()
	s.one(kvFrame(wire.OpInsert, 0, 2, []byte("second")), wire.CodeOK)
	s.one(kvFrame(wire.OpGet, h1, 2, nil), wire.CodeNotFound)
	s.one(kvFrame(wire.OpGet, h2, 2, nil), wire.CodeOK)
	s.one(endFrame(wire.OpAbort, h2), wire.CodeOK)
	s.one(endFrame(wire.OpAbort, h1), wire.CodeOK)
}

// TestPipelinedTransactionAnswersInOrder writes a whole transaction —
// BEGIN, UPDATE under handle 0, COMMIT under handle 0 — in one segment and
// requires three replies in request order.
func TestPipelinedTransactionAnswersInOrder(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 1), nil)
	s := dialRaw(t, addr)
	h := s.begin()
	s.one(kvFrame(wire.OpInsert, h, 7, []byte("old")), wire.CodeOK)
	s.one(endFrame(wire.OpCommit, h), wire.CodeOK)

	codes, payloads := s.send(
		rawFrame{wire.OpBegin, nil},
		kvFrame(wire.OpUpdate, 0, 7, []byte("new")),
		endFrame(wire.OpCommit, 0),
	)
	for i, c := range codes {
		if c != wire.CodeOK {
			t.Fatalf("reply %d: %s %q, want OK", i, c, payloads[i])
		}
	}
	if len(payloads[0]) != 8 || len(payloads[1]) != 0 || len(payloads[2]) != 4+8 {
		t.Fatalf("reply shapes %d/%d/%d bytes, want a handle (8), nothing, a 1-shard LSN vector (12)",
			len(payloads[0]), len(payloads[1]), len(payloads[2]))
	}

	s.begin()
	var got wire.Reader
	got.B = s.one(kvFrame(wire.OpGet, 0, 7, nil), wire.CodeOK)
	if v, _ := got.Bytes(); string(v) != "new" {
		t.Fatalf("pipelined update not committed: %q", v)
	}
}

// TestReusedBuffersKeepRequestsApart pipelines requests of falling size into
// one session, which reads each into the memory of the one before and builds
// each reply where the last was: a 4 KB INSERT, a 3-byte INSERT, a row-op
// INSERT, then GETs of all three. Every value must come back exactly as
// written — nothing of a longer request may show through a shorter one.
func TestReusedBuffersKeepRequestsApart(t *testing.T) {
	_, addr := startServer(t, memRouter(t, 1), nil)
	s := dialRaw(t, addr)
	big := bytes.Repeat([]byte("0123456789abcdef"), 256)
	row, err := kvSchema().EncodeRow(tuple.Row{int64(3), []byte("row")})
	if err != nil {
		t.Fatal(err)
	}
	var rowOp wire.Buf
	rowOp.U64(0)
	rowOp.Bytes([]byte("kv"))
	rowOp.Bytes(row)

	codes, payloads := s.send(
		rawFrame{wire.OpBegin, nil},
		kvFrame(wire.OpInsert, 0, 1, big),
		kvFrame(wire.OpInsert, 0, 2, []byte("abc")),
		rawFrame{wire.OpInsertRow, rowOp.B},
		kvFrame(wire.OpGet, 0, 1, nil),
		kvFrame(wire.OpGet, 0, 2, nil),
		kvFrame(wire.OpGet, 0, 3, nil),
		endFrame(wire.OpCommit, 0),
		rawFrame{wire.OpBegin, nil},
		kvFrame(wire.OpGet, 0, 3, nil),
		kvFrame(wire.OpGet, 0, 2, nil),
		kvFrame(wire.OpGet, 0, 1, nil),
	)
	for i, c := range codes {
		if c != wire.CodeOK {
			t.Fatalf("reply %d: %s %q, want OK", i, c, payloads[i])
		}
	}
	want := map[int][]byte{4: big, 5: []byte("abc"), 6: []byte("row"), 9: []byte("row"), 10: []byte("abc"), 11: big}
	for i, w := range want {
		r := wire.Reader{B: payloads[i]}
		if got, err := r.Bytes(); err != nil || !bytes.Equal(got, w) || len(r.B) != 0 {
			t.Errorf("GET reply %d = %.20q… (%d bytes, %v, %d trailing), want %.20q… (%d bytes)",
				i, got, len(got), err, len(r.B), w, len(w))
		}
	}
}

// TestRefusedBeginLeavesHandleZeroEmpty is the safety half of the rule: with
// transaction A open on the connection, a second BEGIN that the server
// refuses must not leave handle 0 pointing at A — the operation pipelined
// behind it answers UNKNOWN_TX and A never sees it.
func TestRefusedBeginLeavesHandleZeroEmpty(t *testing.T) {
	srv, addr := startServer(t, memRouter(t, 1), nil)
	s := dialRaw(t, addr)
	a := s.begin()
	s.one(kvFrame(wire.OpInsert, 0, 1, []byte("a")), wire.CodeOK)

	// Drain: BEGIN is refused from now on, A may finish.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Ready() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	codes, payloads := s.send(
		rawFrame{wire.OpBegin, nil},
		kvFrame(wire.OpInsert, 0, 99, []byte("stray")),
	)
	if codes[0] != wire.CodeShuttingDown {
		t.Fatalf("BEGIN during drain: %s %q, want SHUTTING_DOWN", codes[0], payloads[0])
	}
	if codes[1] != wire.CodeUnknownTx {
		t.Fatalf("operation behind the refused BEGIN: %s %q, want UNKNOWN_TX", codes[1], payloads[1])
	}

	// A is untouched: its own write is there, the stray one is not, and it
	// still commits during the drain window.
	s.one(kvFrame(wire.OpGet, a, 1, nil), wire.CodeOK)
	s.one(kvFrame(wire.OpGet, a, 99, nil), wire.CodeNotFound)
	s.one(kvFrame(wire.OpGet, 0, 1, nil), wire.CodeUnknownTx) // and handle 0 stays empty
	s.one(endFrame(wire.OpCommit, a), wire.CodeOK)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
