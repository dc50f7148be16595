package engine

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/tuple"
)

// BenchmarkGroupCommit referees group commit: committers goroutines, each
// updating its own row and committing through the Facade, on a File log in
// a temporary directory, synced on every write (siasserver's -wal-sync
// default) and unsynced. ns/op is the time per commit; flushes/commit counts
// the commits that wrote the log themselves, so 1 − flushes/commit is the
// share another commit's write carried.
func BenchmarkGroupCommit(b *testing.B) {
	for _, synced := range []bool{true, false} {
		mode := "synced"
		if !synced {
			mode = "unsynced"
		}
		for _, committers := range []int{2, 16, 64} {
			b.Run(fmt.Sprintf("%s/committers=%d", mode, committers), func(b *testing.B) {
				benchGroupCommit(b, synced, committers)
			})
		}
	}
}

func benchGroupCommit(b *testing.B, synced bool, committers int) {
	walDev, err := device.OpenFile(filepath.Join(b.TempDir(), "wal.img"), page.Size, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	defer walDev.Close()
	walDev.SetSyncOnWrite(synced)
	db, err := Open(DefaultOptions(device.NewMem(page.Size, 1<<16), walDev))
	if err != nil {
		b.Fatal(err)
	}
	f := NewFacade(db)
	tab, err := f.CreateTable("kv", tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	), "k")
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 64)
	tx := f.Begin()
	for k := 0; k < committers; k++ {
		if err := f.Insert(tab, tx, tuple.Row{int64(k), value}); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		b.Fatal(err)
	}
	set := func(row tuple.Row) (tuple.Row, error) {
		row[1] = value
		return row, nil
	}

	before := f.Stats()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for k := 0; k < committers; k++ {
		wg.Add(1)
		go func(key int64) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				tx := f.Begin()
				if err := f.Update(tab, tx, key, set); err != nil {
					b.Error(err)
					return
				}
				if err := f.Commit(tx); err != nil {
					b.Error(err)
					return
				}
			}
		}(int64(k))
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(f.Stats().CommitFlushes-before.CommitFlushes)/float64(b.N), "flushes/commit")
}
