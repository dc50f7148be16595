// Package page implements the 8 KB slotted database page used by every
// storage manager in this repository, together with the 6-byte tuple
// identifier (TID) the paper inherits from PostgreSQL: a 32-bit block number
// plus a 16-bit slot offset.
//
// Layout (all little-endian):
//
//	offset  size  field
//	0       2     magic (0x5149)
//	2       1     format version
//	3       1     flags
//	4       2     lower  — end of the line-pointer array
//	6       2     upper  — start of occupied tuple space
//	8       4     relation id
//	12      8     LSN of the last WAL record touching the page
//	20      4     checksum (CRC-32C over the page with this field zeroed)
//	24      ...   line pointers growing down the page, tuple data growing up
//
// Each line pointer is 4 bytes: 15-bit offset | 1-bit dead flag, 16-bit
// length. A dead line pointer keeps its slot number stable (TIDs remain
// valid) but its space reclaimable by Compact.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the fixed page size in bytes, matching the paper's 8 KB pages.
const Size = 8192

// HeaderSize is the byte size of the page header.
const HeaderSize = 24

// lpSize is the byte size of one line pointer.
const lpSize = 4

const magic = 0x5149

// Flags stored in the page header.
const (
	// FlagAppend marks a SIAS append-region page.
	FlagAppend uint8 = 1 << 0
	// FlagVIDMap marks a VIDmap bucket page.
	FlagVIDMap uint8 = 1 << 1
)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: slot out of range")
	ErrDeadSlot    = errors.New("page: slot is dead")
	ErrCorrupt     = errors.New("page: corrupt or uninitialized")
	ErrBadChecksum = errors.New("page: checksum mismatch")
)

// TID identifies a tuple version's physical location: block (page) number
// within a relation's storage plus the slot index on that page. It is the
// paper's 6-byte PostgreSQL TID.
type TID struct {
	Block uint32
	Slot  uint16
}

// InvalidTID is the zero-ish sentinel for "no location" (block max, slot max);
// block 0/slot 0 is a legal location so the sentinel must live out of band.
var InvalidTID = TID{Block: ^uint32(0), Slot: ^uint16(0)}

// Valid reports whether t is a real location.
func (t TID) Valid() bool { return t != InvalidTID }

func (t TID) String() string {
	if !t.Valid() {
		return "(invalid)"
	}
	return fmt.Sprintf("(%d,%d)", t.Block, t.Slot)
}

// TIDSize is the encoded size of a TID in bytes.
const TIDSize = 6

// EncodeTID writes t into b[:6].
func EncodeTID(b []byte, t TID) {
	binary.LittleEndian.PutUint32(b, t.Block)
	binary.LittleEndian.PutUint16(b[4:], t.Slot)
}

// DecodeTID reads a TID from b[:6].
func DecodeTID(b []byte) TID {
	return TID{
		Block: binary.LittleEndian.Uint32(b),
		Slot:  binary.LittleEndian.Uint16(b[4:]),
	}
}

// Page is an 8 KB slotted page. The zero value is not usable; call Init
// (new page) or Verify (page read from a device).
type Page []byte

// New allocates and initializes an empty page for the given relation.
func New(relID uint32, flags uint8) Page {
	p := make(Page, Size)
	p.Init(relID, flags)
	return p
}

// Init formats p in place as an empty page. len(p) must be Size.
func (p Page) Init(relID uint32, flags uint8) {
	if len(p) != Size {
		panic("page: wrong buffer size")
	}
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], magic)
	p[2] = 1 // format version
	p[3] = flags
	p.setLower(HeaderSize)
	p.setUpper(Size)
	binary.LittleEndian.PutUint32(p[8:], relID)
}

func (p Page) lower() int     { return int(binary.LittleEndian.Uint16(p[4:])) }
func (p Page) upper() int     { return int(binary.LittleEndian.Uint16(p[6:])) }
func (p Page) setLower(v int) { binary.LittleEndian.PutUint16(p[4:], uint16(v)) }
func (p Page) setUpper(v int) { binary.LittleEndian.PutUint16(p[6:], uint16(v)) }

// RelID returns the owning relation id stored in the header.
func (p Page) RelID() uint32 { return binary.LittleEndian.Uint32(p[8:]) }

// Flags returns the header flag byte.
func (p Page) Flags() uint8 { return p[3] }

// LSN returns the page LSN.
func (p Page) LSN() uint64 { return binary.LittleEndian.Uint64(p[12:]) }

// SetLSN stores the page LSN.
func (p Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p[12:], lsn) }

// Initialized reports whether p carries the page magic.
func (p Page) Initialized() bool {
	return len(p) == Size && binary.LittleEndian.Uint16(p[0:]) == magic
}

// NumSlots reports the number of line pointers (live or dead).
func (p Page) NumSlots() int { return (p.lower() - HeaderSize) / lpSize }

// FreeSpace reports the bytes available for one more tuple (accounting for
// its line pointer).
func (p Page) FreeSpace() int {
	free := p.upper() - p.lower() - lpSize
	if free < 0 {
		return 0
	}
	return free
}

// A line pointer read as one little-endian word: offset in bits 0–14, the
// dead flag in bit 15, length in bits 16–31.
func (p Page) lp(slot int) (off, length int, dead bool) {
	v := binary.LittleEndian.Uint32(p[HeaderSize+slot*lpSize:])
	return int(v & 0x7fff), int(v >> 16), v&0x8000 != 0
}

func (p Page) setLP(slot, off, length int, dead bool) {
	v := uint32(length)<<16 | uint32(off)&0x7fff
	if dead {
		v |= 0x8000
	}
	binary.LittleEndian.PutUint32(p[HeaderSize+slot*lpSize:], v)
}

// Insert stores data in a new slot and returns the slot index.
func (p Page) Insert(data []byte) (int, error) {
	slot, dst, err := p.Reserve(len(data))
	if err != nil {
		return 0, err
	}
	copy(dst, data)
	return slot, nil
}

// Reserve allocates a new slot of n bytes and returns its index and its
// bytes (aliasing the page), for the caller to write in place of a copy.
// It fails with ErrPageFull when the free space is too small and with
// ErrCorrupt when the page is not formatted or its free-space bounds are
// impossible.
func (p Page) Reserve(n int) (int, []byte, error) {
	if !p.Initialized() {
		return 0, nil, ErrCorrupt
	}
	lower, upper := p.lower(), p.upper()
	if lower < HeaderSize || upper > Size || lower > upper {
		return 0, nil, ErrCorrupt
	}
	if upper-lower < n+lpSize {
		return 0, nil, ErrPageFull
	}
	slot := p.NumSlots()
	newUpper := upper - n
	p.setUpper(newUpper)
	p.setLower(lower + lpSize)
	p.setLP(slot, newUpper, n, false)
	return slot, p[newUpper:upper:upper], nil
}

// Tuple returns the stored bytes of slot (aliasing the page buffer).
func (p Page) Tuple(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, length, dead := p.lp(slot)
	if dead {
		return nil, ErrDeadSlot
	}
	if off < HeaderSize || off+length > Size {
		return nil, ErrCorrupt
	}
	return p[off : off+length], nil
}

// MarkDead flags a slot dead; its space is reclaimed by Compact, its slot
// number stays allocated so other TIDs on the page remain stable.
func (p Page) MarkDead(slot int) error {
	if slot < 0 || slot >= p.NumSlots() {
		return ErrBadSlot
	}
	off, length, _ := p.lp(slot)
	p.setLP(slot, off, length, true)
	return nil
}

// Compact rewrites the tuple space dropping dead tuples' bytes (their slots
// remain, pointing at zero-length data). Returns bytes reclaimed.
//
// It works in place: Reserve always takes space just below upper, so slot
// order is descending offset order, and moving each live tuple up in slot
// order (copy handles the overlap) never writes over a tuple not yet moved.
func (p Page) Compact() int {
	n := p.NumSlots()
	before := p.upper()
	newUpper := Size
	for s := 0; s < n; s++ {
		off, length, dead := p.lp(s)
		if dead {
			p.setLP(s, 0, 0, true)
			continue
		}
		newUpper -= length
		copy(p[newUpper:newUpper+length], p[off:off+length])
		p.setLP(s, newUpper, length, false)
	}
	p.setUpper(newUpper)
	return newUpper - before
}

// UpdateChecksum computes and stores the page checksum.
func (p Page) UpdateChecksum() {
	binary.LittleEndian.PutUint32(p[20:], p.checksum())
}

// VerifyChecksum validates the stored checksum.
func (p Page) VerifyChecksum() error {
	if !p.Initialized() {
		return ErrCorrupt
	}
	if binary.LittleEndian.Uint32(p[20:]) != p.checksum() {
		return ErrBadChecksum
	}
	return nil
}

// castagnoli is the CRC-32C table: the WAL's record checksum, computed in
// hardware (SSE4.2 on amd64, the CRC instructions on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroChecksum stands in for the checksum field while the page is summed.
var zeroChecksum [4]byte

// checksum is the CRC-32C of the page with its checksum field read as zero.
// It reads the page without writing it.
func (p Page) checksum() uint32 {
	c := crc32.Update(0, castagnoli, p[:20])
	c = crc32.Update(c, castagnoli, zeroChecksum[:])
	return crc32.Update(c, castagnoli, p[24:])
}

// LiveTuples iterates over live slots, calling fn with slot index and bytes.
// Iteration stops early if fn returns false.
func (p Page) LiveTuples(fn func(slot int, data []byte) bool) {
	n := p.NumSlots()
	for s := 0; s < n; s++ {
		off, length, dead := p.lp(s)
		if dead || length == 0 {
			continue
		}
		if !fn(s, p[off:off+length]) {
			return
		}
	}
}
