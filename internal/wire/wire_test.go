package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello sias")
	if err := WriteFrame(&buf, uint8(OpInsert), payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, uint8(OpStats), nil); err != nil {
		t.Fatal(err)
	}
	tag, p, err := ReadFrame(&buf)
	if err != nil || Op(tag) != OpInsert || !bytes.Equal(p, payload) {
		t.Fatalf("frame 1: tag=%d payload=%q err=%v", tag, p, err)
	}
	tag, p, err = ReadFrame(&buf)
	if err != nil || Op(tag) != OpStats || len(p) != 0 {
		t.Fatalf("frame 2: tag=%d payload=%q err=%v", tag, p, err)
	}
}

// socketLike has Write and nothing else, as a net.Conn: WriteFrame must hand
// it a frame in one piece.
type socketLike struct{ writes [][]byte }

func (s *socketLike) Write(p []byte) (int, error) {
	s.writes = append(s.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteFrameBudget pins the frame path's budget: into a buffered writer a
// frame costs no allocation (header from the stack, payload not copied by
// WriteFrame), and into an unbuffered one it stays a single write of the
// same bytes.
func TestWriteFrameBudget(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 300)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	if n := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(bw, uint8(OpUpdate), payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame into a bufio.Writer allocates %v times per frame, want 0", n)
	}

	var want bytes.Buffer
	if err := WriteFrame(&want, uint8(OpUpdate), payload); err != nil {
		t.Fatal(err)
	}
	var sock socketLike
	if err := WriteFrame(&sock, uint8(OpUpdate), payload); err != nil {
		t.Fatal(err)
	}
	if len(sock.writes) != 1 || !bytes.Equal(sock.writes[0], want.Bytes()) {
		t.Errorf("unbuffered writer got %d writes, want 1 carrying the whole frame", len(sock.writes))
	}
}

// TestReadFrameBudget pins the read side: into a warm buffer — the payload
// of the frame before — ReadFrame allocates nothing, header included, and the
// payload it returns is that buffer's memory.
func TestReadFrameBudget(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, uint8(OpUpdate), bytes.Repeat([]byte{0x5a}, 300)); err != nil {
		t.Fatal(err)
	}
	frame := stream.Bytes()
	r := bytes.NewReader(frame)
	_, buf, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.Reset(frame)
		tag, p, err := ReadFrame(r, buf)
		if err != nil || Op(tag) != OpUpdate || len(p) != 300 || &p[0] != &buf[0] {
			t.Fatalf("warm read: tag %d, %d bytes, %v, in the buffer: %v", tag, len(p), err, len(p) > 0 && &p[0] == &buf[0])
		}
	}); n != 0 {
		t.Errorf("ReadFrame into a warm buffer allocates %v times per frame, want 0", n)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	// A length field over MaxFrame must be rejected without allocation.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	var b Buf
	b.U64(42)
	b.I64(-7)
	b.Bytes([]byte("val"))
	b.U32(9)
	r := Reader{B: b.B}
	if v, err := r.U64(); err != nil || v != 42 {
		t.Fatalf("u64: %d %v", v, err)
	}
	if v, err := r.I64(); err != nil || v != -7 {
		t.Fatalf("i64: %d %v", v, err)
	}
	if v, err := r.Bytes(); err != nil || string(v) != "val" {
		t.Fatalf("bytes: %q %v", v, err)
	}
	if v, err := r.U32(); err != nil || v != 9 {
		t.Fatalf("u32: %d %v", v, err)
	}
	if _, err := r.U32(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty reader: %v, want ErrTruncated", err)
	}
	short := Reader{B: []byte{3, 0, 0, 0, 'a'}}
	if _, err := short.Bytes(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short bytes: %v, want ErrTruncated", err)
	}
}

func TestTraceEnvelopeRoundTrip(t *testing.T) {
	inner := []byte{1, 2, 3, 4}
	env := EncodeTraceEnvelope(0xdeadbeefcafef00d, 0x1122334455667788, true, OpCommit, inner)
	traceID, parentSpan, sampled, op, payload, err := DecodeTraceEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != 0xdeadbeefcafef00d || parentSpan != 0x1122334455667788 || !sampled ||
		op != OpCommit || !bytes.Equal(payload, inner) {
		t.Fatalf("round trip: trace=%x parent=%x sampled=%v op=%v payload=%v",
			traceID, parentSpan, sampled, op, payload)
	}
	// Empty inner payload and unsampled bit survive too.
	env = EncodeTraceEnvelope(1, 0, false, OpBegin, nil)
	_, parentSpan, sampled, op, payload, err = DecodeTraceEnvelope(env)
	if err != nil || parentSpan != 0 || sampled || op != OpBegin || len(payload) != 0 {
		t.Fatalf("empty round trip: parent=%x sampled=%v op=%v payload=%v err=%v",
			parentSpan, sampled, op, payload, err)
	}
	// Every truncation of the 18-byte header is a decode error, not a panic.
	for cut := 0; cut < 18; cut++ {
		if _, _, _, _, _, err := DecodeTraceEnvelope(env[:cut]); err == nil {
			t.Fatalf("truncated envelope (%d bytes) decoded", cut)
		}
	}
}
