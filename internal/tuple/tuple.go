// Package tuple defines the on-tuple version headers of both storage schemes
// and a schema-driven row codec.
//
// SIAS header (Section 4.1.1 of the paper): creation timestamp (the creating
// transaction's id), the data item's VID, a physical back pointer *ptr to the
// predecessor version (or none), and flags. There is deliberately NO
// invalidation timestamp — invalidation is implicit in the existence of a
// successor.
//
// SI header (classical snapshot isolation as in PostgreSQL): xmin (creating
// transaction), xmax (invalidating transaction, set in place by updates and
// deletes), a forward ctid link to the successor version, and flags.
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sias/internal/page"
	"sias/internal/txn"
)

// Flags on tuple versions.
const (
	// FlagTombstone marks the special deletion version SIAS appends for a
	// delete (Section 4.2.2): it makes the item invisible to transactions
	// that start after the deleter commits, while older transactions can
	// still reach the predecessor through the chain.
	FlagTombstone uint8 = 1 << 0
)

// SIASHeaderSize is the encoded size of a SIAS on-tuple header:
// create(8) + vid(8) + pred(6) + flags(1).
const SIASHeaderSize = 8 + 8 + page.TIDSize + 1

// SIASHeader is the paper's on-tuple information for one tuple version.
type SIASHeader struct {
	Create txn.ID   // inserting transaction's id (creation timestamp)
	VID    uint64   // virtual id, equal across all versions of the item
	Pred   page.TID // physical reference to the predecessor version
	Flags  uint8
}

// Tombstone reports whether this version is a deletion marker.
func (h SIASHeader) Tombstone() bool { return h.Flags&FlagTombstone != 0 }

// PutSIAS writes hdr followed by payload into dst, which must be exactly
// SIASHeaderSize+len(payload) bytes — a page slot reserved for the version
// (page.Page.Reserve), so appending a version copies its payload once.
func PutSIAS(dst []byte, hdr SIASHeader, payload []byte) {
	if len(dst) != SIASHeaderSize+len(payload) {
		panic(fmt.Sprintf("tuple: PutSIAS into %d bytes, want %d", len(dst), SIASHeaderSize+len(payload)))
	}
	binary.LittleEndian.PutUint64(dst[0:], uint64(hdr.Create))
	binary.LittleEndian.PutUint64(dst[8:], hdr.VID)
	page.EncodeTID(dst[16:], hdr.Pred)
	dst[22] = hdr.Flags
	copy(dst[SIASHeaderSize:], payload)
}

// DecodeSIAS splits an encoded SIAS tuple into header and payload. The
// payload aliases b.
func DecodeSIAS(b []byte) (SIASHeader, []byte, error) {
	if len(b) < SIASHeaderSize {
		return SIASHeader{}, nil, fmt.Errorf("tuple: SIAS tuple too short (%d bytes)", len(b))
	}
	h := SIASHeader{
		Create: txn.ID(binary.LittleEndian.Uint64(b[0:])),
		VID:    binary.LittleEndian.Uint64(b[8:]),
		Pred:   page.DecodeTID(b[16:]),
		Flags:  b[22],
	}
	return h, b[SIASHeaderSize:], nil
}

// SIHeaderSize is the encoded size of an SI on-tuple header:
// xmin(8) + xmax(8) + ctid(6) + flags(1).
const SIHeaderSize = 8 + 8 + page.TIDSize + 1

// SIHeader is the classical on-tuple visibility information: both timestamps
// live on the version, and invalidation mutates xmax in place.
type SIHeader struct {
	Xmin  txn.ID   // creating transaction
	Xmax  txn.ID   // invalidating transaction (InvalidID while live)
	CTID  page.TID // forward link to the successor version
	Flags uint8
}

// Tombstone reports whether this version is a deletion marker (SI marks the
// deleted version itself via xmax; the flag is used only for parity in
// diagnostics).
func (h SIHeader) Tombstone() bool { return h.Flags&FlagTombstone != 0 }

// PutSI writes hdr followed by payload into dst, which must be exactly
// SIHeaderSize+len(payload) bytes — the page slot reserved for the version,
// as PutSIAS does for SIAS.
func PutSI(dst []byte, hdr SIHeader, payload []byte) {
	if len(dst) != SIHeaderSize+len(payload) {
		panic(fmt.Sprintf("tuple: PutSI into %d bytes, want %d", len(dst), SIHeaderSize+len(payload)))
	}
	binary.LittleEndian.PutUint64(dst[0:], uint64(hdr.Xmin))
	binary.LittleEndian.PutUint64(dst[8:], uint64(hdr.Xmax))
	page.EncodeTID(dst[16:], hdr.CTID)
	dst[22] = hdr.Flags
	copy(dst[SIHeaderSize:], payload)
}

// DecodeSI splits an encoded SI tuple into header and payload (aliasing b).
func DecodeSI(b []byte) (SIHeader, []byte, error) {
	if len(b) < SIHeaderSize {
		return SIHeader{}, nil, fmt.Errorf("tuple: SI tuple too short (%d bytes)", len(b))
	}
	h := SIHeader{
		Xmin:  txn.ID(binary.LittleEndian.Uint64(b[0:])),
		Xmax:  txn.ID(binary.LittleEndian.Uint64(b[8:])),
		CTID:  page.DecodeTID(b[16:]),
		Flags: b[22],
	}
	return h, b[SIHeaderSize:], nil
}

// SetSIXmax overwrites the xmax field of an encoded SI tuple in place —
// the 8-byte in-place invalidation write that SIAS eliminates.
func SetSIXmax(b []byte, xmax txn.ID) error {
	if len(b) < SIHeaderSize {
		return errors.New("tuple: SI tuple too short")
	}
	binary.LittleEndian.PutUint64(b[8:], uint64(xmax))
	return nil
}

// SetSICTID overwrites the ctid forward link of an encoded SI tuple in place.
func SetSICTID(b []byte, ctid page.TID) error {
	if len(b) < SIHeaderSize {
		return errors.New("tuple: SI tuple too short")
	}
	page.EncodeTID(b[16:], ctid)
	return nil
}
