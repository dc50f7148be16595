package server_test

import (
	"bytes"
	"net"
	"testing"

	"sias/internal/server"
	"sias/internal/tuple"
	"sias/internal/wire"
)

// FuzzHandle throws arbitrary (op, payload) request frames at a live session,
// bare and inside a TRACE envelope, each twice over so the repeat lands in the
// session's reused buffers. Whatever arrives, the server must not panic (it
// shares this process), must answer every frame with exactly one reply
// carrying a declared code, must answer BAD_REQUEST to an opcode the protocol
// does not declare, and must keep the connection open and in step — a STATS
// probe behind the four frames still gets its JSON. SUBSCRIBE is the
// one exception: it hands the connection to the replication stream (or hangs
// up on a malformed handshake), so those inputs only have to not panic.
func FuzzHandle(f *testing.F) {
	srv, err := server.New(server.Config{Router: memRouter(f, 2)})
	if err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(ln)
	f.Cleanup(srv.Kill)
	addr := ln.Addr().String()

	// One well-formed frame per payload shape (handle 0 is the BEGIN each
	// execution sends first), plus the frames the request loop treats itself.
	row, err := kvSchema().EncodeRow(tuple.Row{int64(7), []byte("v")})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(op wire.Op, fn func(b *wire.Buf)) {
		var b wire.Buf
		if fn != nil {
			fn(&b)
		}
		f.Add(uint8(op), b.B)
	}
	seed(wire.OpSnapshot, nil)                                                                  // none
	seed(wire.OpCommit, func(b *wire.Buf) { b.U64(0) })                                         // handle
	seed(wire.OpScan, func(b *wire.Buf) { b.U64(0); b.I64(0); b.I64(100); b.U32(10) })          // handle
	seed(wire.OpInsert, func(b *wire.Buf) { b.U64(0); b.I64(7); b.Bytes([]byte("v")) })         // handle+key
	seed(wire.OpInsertRow, func(b *wire.Buf) { b.U64(0); b.Bytes([]byte("kv")); b.Bytes(row) }) // handle+table
	seed(wire.OpGetRow, func(b *wire.Buf) { b.U64(0); b.Bytes([]byte("kv")); b.I64(7) })        // handle+table+key
	seed(wire.OpCreateIndex, func(b *wire.Buf) { b.Bytes([]byte("kv")); b.Bytes([]byte("by_k")); b.Bytes([]byte("k")) })
	seed(wire.OpSubscribe, func(b *wire.Buf) { b.Bytes(nil); b.U32(2); b.U64(0); b.U64(0) })
	f.Add(uint8(wire.OpTrace), wire.EncodeTraceEnvelope(1, 2, true, wire.OpBegin, nil))
	f.Add(uint8(0), []byte(nil))
	f.Add(uint8(wire.NumOps), []byte("beyond the table"))
	f.Add(uint8(255), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, rawOp uint8, payload []byte) {
		op := wire.Op(rawOp)
		s := dialRaw(t, addr)
		begin := rawFrame{wire.OpBegin, nil}
		bare := rawFrame{op, payload}
		wrapped := rawFrame{wire.OpTrace, wire.EncodeTraceEnvelope(9, 0, true, op, payload)}

		_, _, _, inner, _, envErr := wire.DecodeTraceEnvelope(payload)
		if op == wire.OpSubscribe || (op == wire.OpTrace && envErr == nil && inner == wire.OpSubscribe) {
			// The connection is the stream's from here on; the server must
			// merely survive it.
			var seg bytes.Buffer
			wire.WriteFrame(&seg, uint8(begin.op), nil)
			wire.WriteFrame(&seg, rawOp, payload)
			s.nc.Write(seg.Bytes())
			return
		}

		// Each input goes twice: the second copy is read into the buffer the
		// first (and its reply) left behind.
		codes, payloads := s.send(begin, bare, wrapped, bare, wrapped, rawFrame{wire.OpStats, nil})
		if codes[0] != wire.CodeOK {
			t.Fatalf("BEGIN answered %s", codes[0])
		}
		for i, c := range codes[1:5] {
			if c > wire.CodeInDoubt || c == wire.CodeLogBatch {
				t.Errorf("frame %d of %s answered with code %s", i, op, c)
			}
			if op.Kind() == wire.KindUnknown && c != wire.CodeBadRequest {
				t.Errorf("frame %d: undeclared %s answered %s, want BAD_REQUEST", i, op, c)
			}
		}
		if codes[5] != wire.CodeOK || len(payloads[5]) == 0 || payloads[5][0] != '{' {
			t.Fatalf("STATS behind %s answered %s %.40q: the session lost step", op, codes[5], payloads[5])
		}
	})
}
