package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame throws arbitrary byte streams at the frame parser: it must
// never panic, never allocate past MaxFrame, and on success a re-encode of
// (tag, payload) must reproduce the consumed bytes exactly.
func FuzzReadFrame(f *testing.F) {
	seed := func(tag uint8, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tag, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(uint8(OpBegin), nil))
	f.Add(seed(uint8(OpInsert), []byte("key and value bytes")))
	f.Add(seed(uint8(OpStats), bytes.Repeat([]byte{0xab}, 300)))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 9, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tag, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		var out bytes.Buffer
		if werr := WriteFrame(&out, tag, payload); werr != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", werr)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("round trip mismatch: parsed %q from % x, re-encoded % x",
				payload, data[:consumed], out.Bytes())
		}
	})
}

// FuzzPayloadReader drives the primitive payload decoder over arbitrary
// bytes with an arbitrary field script: decoding must never panic or read
// out of bounds, and decoded fields must re-encode to the consumed prefix.
func FuzzPayloadReader(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1})
	f.Add([]byte{3, 0, 0, 0, 'a', 'b', 'c'}, []byte{3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{3})

	f.Fuzz(func(t *testing.T, data []byte, script []byte) {
		r := Reader{B: data}
		var re Buf
		for _, op := range script {
			var err error
			switch op % 4 {
			case 0:
				var v uint32
				v, err = r.U32()
				if err == nil {
					re.U32(v)
				}
			case 1:
				var v uint64
				v, err = r.U64()
				if err == nil {
					re.U64(v)
				}
			case 2:
				var v int64
				v, err = r.I64()
				if err == nil {
					re.I64(v)
				}
			case 3:
				var v []byte
				v, err = r.Bytes()
				if err == nil {
					re.Bytes(v)
				}
			}
			if err != nil {
				return
			}
		}
		consumed := len(data) - len(r.B)
		if !bytes.Equal(re.B, data[:consumed]) {
			t.Fatalf("decoded fields re-encode to % x, consumed % x", re.B, data[:consumed])
		}
	})
}

// FuzzFrameStream parses a stream of frames back-to-back, the way a server
// connection does — each frame into the buffer the previous one came in —
// and checks every frame against a parse into fresh memory: reuse must never
// let one frame's bytes show through in the next.
func FuzzFrameStream(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, uint8(OpBegin), nil)
	WriteFrame(&buf, uint8(OpGet), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(buf.Bytes())
	f.Add([]byte{1, 0, 0, 0, 42, 1, 0, 0, 0, 43})
	// BEGIN with its first operation behind it, naming handle 0.
	var pair bytes.Buffer
	var upd Buf
	upd.U64(0)
	upd.I64(7)
	upd.Bytes([]byte("v"))
	WriteFrame(&pair, uint8(OpBegin), nil)
	WriteFrame(&pair, uint8(OpUpdate), upd.B)
	f.Add(pair.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, reused := bytes.NewReader(data), bytes.NewReader(data)
		var buf []byte
		for i := 0; i < 64; i++ {
			wantTag, want, wantErr := ReadFrame(fresh)
			tag, got, err := ReadFrame(reused, buf)
			if err != wantErr || tag != wantTag || !bytes.Equal(got, want) {
				t.Fatalf("frame %d: reused buffer read %d %q (%v), fresh read %d %q (%v)",
					i, tag, got, err, wantTag, want, wantErr)
			}
			if err != nil {
				return
			}
			buf = got
		}
	})
}
