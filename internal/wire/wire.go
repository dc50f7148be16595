// Package wire defines the length-prefixed binary protocol spoken between
// the SIAS network server (internal/server) and its Go client
// (internal/client).
//
// Framing. Every message — request or response — is one frame:
//
//	| u32 length (LE) | u8 tag | payload ... |
//
// where length counts the tag plus the payload (not the length field
// itself). Requests use an Op as the tag; responses use a Code. A CodeOK
// response carries an op-specific payload; any other code carries a UTF-8
// error message. Integers are little-endian; byte strings and rows are
// u32-length-prefixed. Requests on one connection are answered in order, so
// clients may pipeline without request ids.
//
// Transactions are server-side state: Begin returns a u64 handle scoped to
// the connection that created it, and every data op names a handle (0 = the
// BEGIN just before it, see protocol.go). Closing the connection aborts its
// open transactions.
//
// The authoritative table of opcodes and response codes lives in protocol.go;
// this file holds the framing and the primitive payload codecs.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
)

// MaxFrame bounds a frame's length field; larger frames are rejected before
// allocation so a corrupt peer cannot balloon memory.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a frame exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// WriteFrame writes one frame (tag + payload) to w.
//
// A writer that takes single bytes is a buffer (*bufio.Writer on every
// connection, bytes.Buffer in tests): the header goes in byte by byte from
// the stack and the payload is handed over as is — no allocation and no copy
// before the buffer's own. Anything else may be a socket, where two writes
// would be two segments, so the frame is assembled and written once.
func WriteFrame(w io.Writer, tag uint8, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)+1))
	hdr[4] = tag
	if bw, ok := w.(io.ByteWriter); ok {
		for _, c := range hdr {
			if err := bw.WriteByte(c); err != nil {
				return err
			}
		}
		_, err := w.Write(payload)
		return err
	}
	frame := make([]byte, len(hdr)+len(payload))
	copy(frame, hdr[:])
	copy(frame[len(hdr):], payload)
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame from r, returning the tag and payload.
//
// A caller that reads frame after frame and is done with each payload before
// the next passes the previous payload back as buf: the header and the next
// payload are read into its memory whenever its capacity holds them, so a
// warm buffer reads frames without allocating. The payload always starts at
// buf's first byte, so it is the buffer to pass next time. A caller that keeps
// the payload passes nil or nothing (buf is variadic so the one-argument
// callers — the client, the replication stream, the bench module's wire
// driver — read as before) and gets a fresh slice of exactly its length.
func ReadFrame(r io.Reader, buf ...[]byte) (uint8, []byte, error) {
	var reuse []byte
	if len(buf) > 0 {
		reuse = buf[0]
	}
	hdr := reuse
	if cap(hdr) < 5 {
		hdr = make([]byte, 5)
	}
	hdr = hdr[:5]
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, noEOF(err)
	}
	tag := hdr[4]
	body := reuse
	if cap(body) < int(n-1) {
		body = make([]byte, n-1)
	}
	body = body[:n-1]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, noEOF(err)
	}
	return tag, body, nil
}

// noEOF reports a stream that ends inside a frame as truncated: io.EOF is
// only a clean end between frames.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Buf builds a payload with the protocol's primitive encodings.
type Buf struct{ B []byte }

// U8 appends a single byte.
func (b *Buf) U8(v uint8) { b.B = append(b.B, v) }

// U32 appends a little-endian uint32.
func (b *Buf) U32(v uint32) { b.B = binary.LittleEndian.AppendUint32(b.B, v) }

// U64 appends a little-endian uint64.
func (b *Buf) U64(v uint64) { b.B = binary.LittleEndian.AppendUint64(b.B, v) }

// I64 appends a little-endian int64.
func (b *Buf) I64(v int64) { b.U64(uint64(v)) }

// Bytes appends a u32-length-prefixed byte string.
func (b *Buf) Bytes(p []byte) {
	b.U32(uint32(len(p)))
	b.B = append(b.B, p...)
}

// ErrTruncated reports a payload shorter than its encoding requires.
var ErrTruncated = errors.New("wire: truncated payload")

// Reader decodes a payload built with Buf.
type Reader struct{ B []byte }

// U8 consumes a single byte.
func (r *Reader) U8() (uint8, error) {
	if len(r.B) < 1 {
		return 0, ErrTruncated
	}
	v := r.B[0]
	r.B = r.B[1:]
	return v, nil
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	if len(r.B) < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.B)
	r.B = r.B[4:]
	return v, nil
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	if len(r.B) < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.B)
	r.B = r.B[8:]
	return v, nil
}

// I64 consumes a little-endian int64.
func (r *Reader) I64() (int64, error) {
	v, err := r.U64()
	return int64(v), err
}

// Bytes consumes a u32-length-prefixed byte string.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.B)) < n {
		return nil, ErrTruncated
	}
	p := r.B[:n]
	r.B = r.B[n:]
	return p, nil
}
