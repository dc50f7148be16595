package vidmap

import (
	"sync"
	"testing"
	"testing/quick"

	"sias/internal/page"
)

func TestBucketAddressing(t *testing.T) {
	// The paper's DIV/MOD scheme: BucketNr = ⌊VID/1024⌋, pos = VID mod 1024.
	cases := []struct {
		vid          uint64
		bucket, slot uint64
	}{
		{0, 0, 0},
		{1023, 0, 1023},
		{1024, 1, 0},
		{1025, 1, 1},
		{10 * 1024, 10, 0},
	}
	for _, c := range cases {
		if BucketOf(c.vid) != c.bucket || SlotOf(c.vid) != c.slot {
			t.Errorf("vid %d: (%d,%d), want (%d,%d)", c.vid, BucketOf(c.vid), SlotOf(c.vid), c.bucket, c.slot)
		}
	}
}

func TestBucketAddressingProperty(t *testing.T) {
	// Every VID maps to exactly one slot and the mapping is invertible.
	f := func(vid uint64) bool {
		return BucketOf(vid)*BucketCapacity+SlotOf(vid) == vid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocSequential(t *testing.T) {
	m := New()
	for i := uint64(0); i < 2500; i++ {
		if got := m.AllocVID(); got != i {
			t.Fatalf("AllocVID = %d, want %d", got, i)
		}
	}
	// 2500 VIDs span ⌈2500/1024⌉ = 3 buckets once set.
	for i := uint64(0); i < 2500; i++ {
		m.Set(i, page.TID{Block: uint32(i), Slot: uint16(i)})
	}
	if m.Buckets() != 3 {
		t.Errorf("Buckets = %d, want 3", m.Buckets())
	}
}

func TestGetSetRoundtrip(t *testing.T) {
	m := New()
	if _, ok := m.Get(5); ok {
		t.Error("empty map should miss")
	}
	want := page.TID{Block: 77, Slot: 3}
	m.Set(5, want)
	got, ok := m.Get(5)
	if !ok || got != want {
		t.Errorf("Get = %v,%v; want %v,true", got, ok, want)
	}
	// TID (0,0) is representable and distinct from absent.
	m.Set(6, page.TID{})
	if got, ok := m.Get(6); !ok || got != (page.TID{}) {
		t.Errorf("TID(0,0) roundtrip failed: %v %v", got, ok)
	}
}

func TestCompareAndSwap(t *testing.T) {
	m := New()
	a := page.TID{Block: 1, Slot: 1}
	b := page.TID{Block: 2, Slot: 2}
	c := page.TID{Block: 3, Slot: 3}
	m.Set(0, a)
	if !m.CompareAndSwap(0, a, b) {
		t.Error("CAS a->b should succeed")
	}
	if m.CompareAndSwap(0, a, c) {
		t.Error("CAS with stale old should fail")
	}
	if got, _ := m.Get(0); got != b {
		t.Errorf("entry = %v, want %v", got, b)
	}
}

func TestClear(t *testing.T) {
	m := New()
	a := page.TID{Block: 4, Slot: 4}
	m.Set(9, a)
	if !m.Clear(9, a) {
		t.Error("Clear should succeed with matching old")
	}
	if _, ok := m.Get(9); ok {
		t.Error("entry should be gone")
	}
	if m.Clear(9, a) {
		t.Error("double clear should fail")
	}
}

func TestRangeOrderAndSkips(t *testing.T) {
	m := New()
	vids := []uint64{3, 100, 1024, 5000}
	m.SetNextVID(5001)
	for _, v := range vids {
		m.Set(v, page.TID{Block: uint32(v)})
	}
	var got []uint64
	m.Range(func(vid uint64, tid page.TID) bool {
		got = append(got, vid)
		return true
	})
	if len(got) != len(vids) {
		t.Fatalf("Range visited %v, want %v", got, vids)
	}
	for i := range vids {
		if got[i] != vids[i] {
			t.Errorf("Range order: got %v, want %v", got, vids)
			break
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m := New()
	for i := uint64(0); i < 10; i++ {
		m.Set(m.AllocVID(), page.TID{Block: uint32(i)})
	}
	n := 0
	m.Range(func(uint64, page.TID) bool { n++; return n < 4 })
	if n != 4 {
		t.Errorf("Range visited %d entries, want 4", n)
	}
}

func TestConcurrentSetGet(t *testing.T) {
	m := New()
	const n = 4096
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				m.Set(uint64(i), page.TID{Block: uint32(i)})
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		got, ok := m.Get(uint64(i))
		if !ok || got.Block != uint32(i) {
			t.Fatalf("vid %d: %v %v", i, got, ok)
		}
	}
}

func TestResidencyLRU(t *testing.T) {
	// Deterministic sequence: 0 miss, 0 hit, 1 miss, 2 miss (evict 0), 0 miss.
	r2 := NewResidency(2)
	seq := []struct {
		bn   uint64
		want bool
	}{
		{0, false}, {0, true}, {1, false}, {2, false}, {0, false}, {2, true},
	}
	for i, s := range seq {
		if got := r2.Touch(s.bn); got != s.want {
			t.Errorf("step %d: Touch(%d) = %v, want %v", i, s.bn, got, s.want)
		}
	}
	hits, misses := r2.Stats()
	if hits != 2 || misses != 4 {
		t.Errorf("stats = %d/%d, want 2/4", hits, misses)
	}
}

func TestResidencyUnlimited(t *testing.T) {
	r := NewResidency(0)
	for i := uint64(0); i < 100; i++ {
		if !r.Touch(i) {
			t.Fatal("unlimited residency should never miss")
		}
	}
	var nilR *Residency
	if !nilR.Touch(1) {
		t.Error("nil residency should be a no-op hit")
	}
}
