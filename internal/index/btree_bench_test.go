package index

import (
	"testing"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
)

func benchTree(b *testing.B, preload int) *Tree {
	b.Helper()
	dev := device.NewMem(page.Size, 1<<18)
	pool := buffer.New(buffer.Config{Frames: 4096, HitCost: 0}, dev)
	alloc := space.NewAllocator(dev.NumPages(), 64)
	tr, _, err := New(0, 1, pool, alloc)
	if err != nil {
		b.Fatal(err)
	}
	at := simclock.Time(0)
	for i := 0; i < preload; i++ {
		at, err = tr.Insert(at, int64(i*7919%preload), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

func BenchmarkInsert(b *testing.B) {
	tr := benchTree(b, 0)
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = tr.Insert(at, int64(i), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := benchTree(b, 100000)
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, at, err = tr.SearchAppend(at, int64(i%100000), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := benchTree(b, 100000)
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i % 90000)
		n := 0
		var err error
		at, err = tr.Range(at, lo, lo+99, func(int64, uint64) bool { n++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
}
