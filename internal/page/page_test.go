package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitEmptyPage(t *testing.T) {
	p := New(7, FlagAppend)
	if !p.Initialized() {
		t.Fatal("new page not initialized")
	}
	if p.RelID() != 7 {
		t.Errorf("RelID = %d, want 7", p.RelID())
	}
	if p.Flags() != FlagAppend {
		t.Errorf("Flags = %d, want %d", p.Flags(), FlagAppend)
	}
	if p.NumSlots() != 0 {
		t.Errorf("NumSlots = %d, want 0", p.NumSlots())
	}
	if got, want := p.FreeSpace(), Size-HeaderSize-lpSize; got != want {
		t.Errorf("FreeSpace = %d, want %d", got, want)
	}
}

func TestInsertAndTuple(t *testing.T) {
	p := New(1, 0)
	data := [][]byte{
		[]byte("alpha"),
		[]byte(""),
		bytes.Repeat([]byte{0xAB}, 300),
	}
	for i, d := range data {
		slot, err := p.Insert(d)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if slot != i {
			t.Errorf("Insert %d: slot = %d", i, slot)
		}
	}
	for i, d := range data {
		got, err := p.Tuple(i)
		if err != nil {
			t.Fatalf("Tuple %d: %v", i, err)
		}
		if !bytes.Equal(got, d) {
			t.Errorf("Tuple %d = %q, want %q", i, got, d)
		}
	}
}

func TestInsertUntilFull(t *testing.T) {
	p := New(1, 0)
	tup := bytes.Repeat([]byte{1}, 100)
	n := 0
	for {
		_, err := p.Insert(tup)
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		n++
		if n > Size {
			t.Fatal("page never filled")
		}
	}
	// 104 bytes per tuple (100 + 4 line pointer) in 8168 usable bytes.
	if want := (Size - HeaderSize) / (100 + lpSize); n != want {
		t.Errorf("inserted %d tuples, want %d", n, want)
	}
	if p.FreeSpace() >= 100+lpSize {
		t.Errorf("FreeSpace %d should not fit another tuple", p.FreeSpace())
	}
}

func TestMarkDeadAndCompact(t *testing.T) {
	p := New(1, 0)
	s0, _ := p.Insert([]byte("keep0"))
	s1, _ := p.Insert(bytes.Repeat([]byte{2}, 500))
	s2, _ := p.Insert([]byte("keep2"))
	before := p.FreeSpace()
	if err := p.MarkDead(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tuple(s1); err != ErrDeadSlot {
		t.Errorf("Tuple(dead) err = %v, want ErrDeadSlot", err)
	}
	p.Compact()
	if p.FreeSpace() < before+500 {
		t.Errorf("Compact reclaimed too little: %d -> %d", before, p.FreeSpace())
	}
	// Live tuples survive with stable slot numbers.
	for _, s := range []int{s0, s2} {
		got, err := p.Tuple(s)
		if err != nil {
			t.Fatalf("Tuple(%d) after compact: %v", s, err)
		}
		want := "keep0"
		if s == s2 {
			want = "keep2"
		}
		if string(got) != want {
			t.Errorf("Tuple(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestChecksum(t *testing.T) {
	p := New(1, 0)
	p.Insert([]byte("payload"))
	p.UpdateChecksum()
	if err := p.VerifyChecksum(); err != nil {
		t.Fatalf("VerifyChecksum: %v", err)
	}
	p[5000] ^= 0xFF
	if err := p.VerifyChecksum(); err != ErrBadChecksum {
		t.Errorf("corrupted page verify = %v, want ErrBadChecksum", err)
	}
}

// TestChecksumCatchesEveryByteFlip: on a formatted page with tuples, flipping
// any one of its 8192 bytes — header, checksum field, line pointers, free
// space or tuple data — fails verification, and verifying leaves the page as
// it was. An all-zero page (a never-written block) is rejected outright.
func TestChecksumCatchesEveryByteFlip(t *testing.T) {
	p := New(7, FlagAppend)
	for i := 0; i < 20; i++ {
		if _, err := p.Insert([]byte(fmt.Sprintf("tuple %02d with a few bytes of payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.SetLSN(0x1122334455667788)
	p.UpdateChecksum()
	clean := append(Page(nil), p...)
	if err := p.VerifyChecksum(); err != nil {
		t.Fatalf("VerifyChecksum of a fresh checksum: %v", err)
	}
	for off := 0; off < Size; off++ {
		p[off] ^= 0xFF
		if err := p.VerifyChecksum(); err == nil {
			t.Fatalf("flip at offset %d not detected", off)
		}
		p[off] ^= 0xFF
	}
	if !bytes.Equal(p, clean) {
		t.Fatal("VerifyChecksum changed the page it verified")
	}
	if err := make(Page, Size).VerifyChecksum(); err == nil {
		t.Fatal("an all-zero page verified")
	}
}

func TestLiveTuples(t *testing.T) {
	p := New(1, 0)
	p.Insert([]byte("a"))
	s1, _ := p.Insert([]byte("b"))
	p.Insert([]byte("c"))
	p.MarkDead(s1)
	var got []string
	p.LiveTuples(func(slot int, data []byte) bool {
		got = append(got, string(data))
		return true
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("LiveTuples = %v", got)
	}
}

func TestTIDEncodeDecodeRoundtrip(t *testing.T) {
	f := func(block uint32, slot uint16) bool {
		var b [TIDSize]byte
		tid := TID{Block: block, Slot: slot}
		EncodeTID(b[:], tid)
		return DecodeTID(b[:]) == tid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidTID(t *testing.T) {
	if InvalidTID.Valid() {
		t.Error("InvalidTID should not be valid")
	}
	if !(TID{Block: 0, Slot: 0}).Valid() {
		t.Error("(0,0) is a legal TID and must be valid")
	}
}

// Property: any sequence of inserts below capacity roundtrips all tuples.
func TestInsertRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1, 0)
		var want [][]byte
		for i := 0; i < 50; i++ {
			n := rng.Intn(120)
			d := make([]byte, n)
			rng.Read(d)
			if _, err := p.Insert(d); err != nil {
				return false
			}
			want = append(want, d)
		}
		for i, d := range want {
			got, err := p.Tuple(i)
			if err != nil || !bytes.Equal(got, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: compact after random deaths preserves exactly the live set.
func TestCompactPreservesLiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1, 0)
		type tup struct {
			slot int
			data []byte
			dead bool
		}
		var tups []tup
		for i := 0; i < 40; i++ {
			d := make([]byte, 10+rng.Intn(80))
			rng.Read(d)
			s, err := p.Insert(d)
			if err != nil {
				return false
			}
			tups = append(tups, tup{s, d, false})
		}
		for i := range tups {
			if rng.Intn(2) == 0 {
				p.MarkDead(tups[i].slot)
				tups[i].dead = true
			}
		}
		p.Compact()
		for _, tp := range tups {
			got, err := p.Tuple(tp.slot)
			if tp.dead {
				if err == nil {
					return false
				}
				continue
			}
			if err != nil || !bytes.Equal(got, tp.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReserveWritesInPlace checks that a reserved slot is the page's own
// bytes (a write into it is the stored tuple), that Reserve leaves the page
// as Insert of the same bytes does, and that it tells a full page from one
// whose free-space bounds are impossible.
func TestReserveWritesInPlace(t *testing.T) {
	p, q := New(1, 0), New(1, 0)
	data := bytes.Repeat([]byte{0x5A}, 100)
	slot, dst, err := p.Reserve(len(data))
	if err != nil || len(dst) != len(data) || cap(dst) != len(data) {
		t.Fatalf("Reserve(%d) = slot %d, %d bytes (cap %d), %v", len(data), slot, len(dst), cap(dst), err)
	}
	copy(dst, data)
	if _, err := q.Insert(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, q) {
		t.Error("Reserve and a write into the slot left another page than Insert")
	}
	if _, _, err := p.Reserve(p.FreeSpace() + 1); err != ErrPageFull {
		t.Errorf("Reserve past the free space: %v, want ErrPageFull", err)
	}
	p.setUpper(p.lower() - 1)
	if _, _, err := p.Reserve(1); err != ErrCorrupt {
		t.Errorf("Reserve on a page with upper below lower: %v, want ErrCorrupt", err)
	}
}

// compactByScratch is Compact as it was written before it ran in place:
// every line pointer is read up front, each live tuple goes through a scratch
// buffer, and the line pointers are rewritten at the end, each as two 16-bit
// fields. The in-place Compact must leave the same bytes.
func compactByScratch(p Page) int {
	n := p.NumSlots()
	type ent struct {
		slot, off, length int
		dead              bool
	}
	ents := make([]ent, 0, n)
	for s := 0; s < n; s++ {
		base := HeaderSize + s*lpSize
		v := binary.LittleEndian.Uint16(p[base:])
		length := int(binary.LittleEndian.Uint16(p[base+2:]))
		ents = append(ents, ent{s, int(v &^ 0x8000), length, v&0x8000 != 0})
	}
	before := p.upper()
	buf := make([]byte, 0, Size)
	newUpper := Size
	for i := range ents {
		e := &ents[i]
		if e.dead {
			e.off, e.length = 0, 0
			continue
		}
		buf = append(buf[:0], p[e.off:e.off+e.length]...)
		newUpper -= e.length
		copy(p[newUpper:], buf)
		e.off = newUpper
	}
	p.setUpper(newUpper)
	for _, e := range ents {
		base := HeaderSize + e.slot*lpSize
		v := uint16(e.off)
		if e.dead {
			v |= 0x8000
		}
		binary.LittleEndian.PutUint16(p[base:], v)
		binary.LittleEndian.PutUint16(p[base+2:], uint16(e.length))
	}
	return newUpper - before
}

// TestCompactMatchesScratchCompact runs rounds of inserts (zero-length ones
// included), deaths and compactions on random pages and checks that the
// in-place Compact leaves every byte of the page, and returns the count,
// that the scratch-buffer algorithm does on a copy.
func TestCompactMatchesScratchCompact(t *testing.T) {
	const pages, rounds = 3000, 6
	rng := rand.New(rand.NewSource(1))
	ref := New(1, 0)
	for i := 0; i < pages; i++ {
		p := New(1, 0)
		for r := 0; r < rounds; r++ {
			for k := rng.Intn(40); k > 0; k-- {
				d := make([]byte, rng.Intn(300))
				rng.Read(d)
				if _, err := p.Insert(d); err != nil {
					break
				}
			}
			for s := p.NumSlots() - 1; s >= 0; s-- {
				if rng.Intn(3) == 0 {
					p.MarkDead(s)
				}
			}
			copy(ref, p)
			want := compactByScratch(ref)
			if got := p.Compact(); got != want {
				t.Fatalf("page %d round %d: Compact reclaimed %d bytes, the scratch algorithm %d", i, r, got, want)
			}
			if !bytes.Equal(p, ref) {
				t.Fatalf("page %d round %d: Compact left other bytes than the scratch algorithm", i, r)
			}
		}
	}
}

// TestCompactAllocBudget pins Compact at zero allocations: the SI baseline
// compacts a page on every prune.
func TestCompactAllocBudget(t *testing.T) {
	src := New(1, 0)
	for i := 0; i < 60; i++ {
		src.Insert(make([]byte, 100))
		if i%2 == 0 {
			src.MarkDead(i)
		}
	}
	work := New(1, 0)
	allocs := testing.AllocsPerRun(100, func() {
		copy(work, src)
		work.Compact()
	})
	if allocs != 0 {
		t.Errorf("Compact allocates %.1f times, want 0", allocs)
	}
}
