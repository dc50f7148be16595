package core

import (
	"fmt"
	"testing"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
	"sias/internal/txn"
	"sias/internal/wal"
)

func benchEnv(b *testing.B) *env {
	b.Helper()
	dev := device.NewMem(page.Size, 1<<18)
	walDev := device.NewMem(page.Size, 1<<16)
	pool := buffer.New(buffer.Config{Frames: 8192, HitCost: 0}, dev)
	alloc := space.NewAllocator(dev.NumPages(), 64)
	walw := wal.NewWriter(walDev)
	txm := txn.NewManager()
	rel, _, err := New(0, Config{ID: 1, Name: "b", Pool: pool, Alloc: alloc, WAL: walw, Txns: txm, PKRelID: 2})
	if err != nil {
		b.Fatal(err)
	}
	return &env{dev, pool, alloc, walw, txm, rel}
}

func BenchmarkInsert(b *testing.B) {
	e := benchEnv(b)
	tx := e.txm.Begin()
	pl := make([]byte, 120)
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, at, err = e.rel.Insert(tx, at, int64(i), pl)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.txm.Commit(tx)
}

func BenchmarkUpdate(b *testing.B) {
	e := benchEnv(b)
	setup := e.txm.Begin()
	pl := make([]byte, 120)
	vid, at, err := e.rel.Insert(setup, 0, 1, pl)
	if err != nil {
		b.Fatal(err)
	}
	e.txm.Commit(setup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.txm.Begin()
		at, err = e.rel.updateVID(tx, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
			return pl, 1, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		e.txm.Commit(tx)
	}
}

// BenchmarkGetByVIDChainDepth is the chain-length ablation: lookup cost of
// an old snapshot as the chain it must traverse grows. Fresh snapshots stay
// O(1) (the entrypoint); old snapshots pay one hop per newer version.
func BenchmarkGetByVIDChainDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := benchEnv(b)
			setup := e.txm.Begin()
			pl := make([]byte, 120)
			vid, at, _ := e.rel.Insert(setup, 0, 1, pl)
			e.txm.Commit(setup)
			oldSnap := e.txm.Begin() // pins the original version
			for i := 0; i < depth; i++ {
				tx := e.txm.Begin()
				at, _ = e.rel.updateVID(tx, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
					return pl, 1, nil
				})
				e.txm.Commit(tx)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.rel.getVID(oldSnap, at, vid); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			e.txm.Commit(oldSnap)
		})
	}
}

func BenchmarkScan(b *testing.B) {
	e := benchEnv(b)
	tx := e.txm.Begin()
	pl := make([]byte, 120)
	at := simclock.Time(0)
	for i := 0; i < 10000; i++ {
		_, at, _ = e.rel.Insert(tx, at, int64(i), pl)
	}
	e.txm.Commit(tx)
	r := e.txm.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := e.rel.Scan(r, at, func(uint64, page.TID, []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != 10000 {
			b.Fatalf("scan saw %d", n)
		}
	}
	b.StopTimer()
	e.txm.Commit(r)
}

// BenchmarkGC measures one churn round — 20 superseding updates, a seal and
// the garbage collection that reclaims the dead suffix. (Setup is included
// in the measurement deliberately: with timer start/stop gymnastics the
// unmeasured setup would dwarf the measured work and the framework would
// balloon b.N.)
func BenchmarkGC(b *testing.B) {
	e := benchEnv(b)
	pl := make([]byte, 1500)
	setup := e.txm.Begin()
	vid, at, _ := e.rel.Insert(setup, 0, 1, pl)
	e.txm.Commit(setup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 20; j++ {
			tx := e.txm.Begin()
			at, _ = e.rel.updateVID(tx, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
				return pl, 1, nil
			})
			e.txm.Commit(tx)
		}
		at, _ = e.rel.SealAppend(at, false)
		if _, _, err := e.rel.GC(at, e.txm.Horizon()); err != nil {
			b.Fatal(err)
		}
	}
}
