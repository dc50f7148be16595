package page

import "testing"

func BenchmarkInsert(b *testing.B) {
	tup := make([]byte, 100)
	p := New(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(tup); err == ErrPageFull {
			p.Init(1, 0)
		}
	}
}

func BenchmarkTuple(b *testing.B) {
	p := New(1, 0)
	for i := 0; i < 60; i++ {
		p.Insert(make([]byte, 100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Tuple(i % 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageChecksum is what a dirty page's write-back pays for its
// checksum, in ns per 8 KB page: the buffer pool computes it while holding the
// page's stripe mutex.
func BenchmarkPageChecksum(b *testing.B) {
	p := New(1, 0)
	p.Insert(make([]byte, 4000))
	b.SetBytes(Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.UpdateChecksum()
	}
}

// BenchmarkCompact compacts a page of 60 100-byte tuples, every other one
// dead: what an SI prune pays after marking its slot dead.
func BenchmarkCompact(b *testing.B) {
	src := New(1, 0)
	for i := 0; i < 60; i++ {
		src.Insert(make([]byte, 100))
		if i%2 == 0 {
			src.MarkDead(i)
		}
	}
	work := New(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		work.Compact()
	}
}
