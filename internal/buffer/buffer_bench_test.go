package buffer

import (
	"math/rand"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
)

func BenchmarkGetHit(b *testing.B) {
	p, _ := newBenchPool(1024)
	f, at, _ := p.Get(0, 1, true)
	p.Release(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, at2, err := p.Get(at, 1, false)
		if err != nil {
			b.Fatal(err)
		}
		at = at2
		p.Release(f, false)
	}
}

func BenchmarkGetMissEvict(b *testing.B) {
	p, _ := newBenchPool(64)
	rng := rand.New(rand.NewSource(1))
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, at2, err := p.Get(at, rng.Int63n(4096), true)
		if err != nil {
			b.Fatal(err)
		}
		at = at2
		p.Release(f, i%4 == 0)
	}
}

func BenchmarkFlushAll(b *testing.B) {
	p, _ := newBenchPool(1024)
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := int64(0); j < 256; j++ {
			f, at2, _ := p.Get(at, j, true)
			f.Data.Init(1, 0)
			at = at2
			p.Release(f, true)
		}
		b.StartTimer()
		var err error
		at, err = p.FlushAll(at)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchPool(frames int) (*Pool, *device.Mem) {
	dev := device.NewMem(page.Size, 1<<16)
	return New(Config{Frames: frames, HitCost: 0}, dev), dev
}

// benchParallelGet drives RunParallel hit traffic against a pool with the
// given stripe count; the striped/single pair quantifies what partitioning
// buys on the pure in-memory hit path. The pages are half the pool: hashed
// over 16 stripes of 64 frames, a pool-sized set overflows the fuller
// stripes and turns a share of the Gets into misses. misses/op reports any
// that remain.
func benchParallelGet(b *testing.B, partitions int) {
	const pages = 512
	dev := device.NewMem(page.Size, 1<<16)
	p := New(Config{Frames: 1024, Partitions: partitions, HitCost: 0}, dev)
	at := simclock.Time(0)
	for dp := int64(0); dp < pages; dp++ {
		f, t2, err := p.Get(at, dp, true)
		if err != nil {
			b.Fatal(err)
		}
		at = t2
		p.Release(f, false)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(b.N)))
		wat := simclock.Time(0)
		for pb.Next() {
			f, t2, err := p.Get(wat, rng.Int63n(pages), false)
			if err != nil {
				b.Fatal(err)
			}
			wat = t2
			f.RLock()
			_ = f.Data.NumSlots()
			f.RUnlock()
			p.Release(f, false)
		}
	})
	b.ReportMetric(float64(p.Stats().Misses-pages)/float64(b.N), "misses/op")
}

func BenchmarkGetHitParallelStriped(b *testing.B) { benchParallelGet(b, 0) }
func BenchmarkGetHitParallelSingle(b *testing.B)  { benchParallelGet(b, 1) }

// benchParallelEvict measures the miss/eviction path: the working set is 4x
// the pool, so most Gets write back a dirty victim and read the device.
func benchParallelEvict(b *testing.B, partitions int) {
	dev := device.NewMem(page.Size, 1<<16)
	p := New(Config{Frames: 256, Partitions: partitions, HitCost: 0}, dev)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(b.N)))
		wat := simclock.Time(0)
		i := 0
		for pb.Next() {
			f, t2, err := p.Get(wat, rng.Int63n(1024), true)
			if err != nil {
				b.Fatal(err)
			}
			wat = t2
			p.Release(f, i%2 == 0)
			i++
		}
	})
}

func BenchmarkGetEvictParallelStriped(b *testing.B) { benchParallelEvict(b, 0) }
func BenchmarkGetEvictParallelSingle(b *testing.B)  { benchParallelEvict(b, 1) }
