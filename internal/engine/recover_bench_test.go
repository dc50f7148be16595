package engine

import (
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/tuple"
)

// BenchmarkRecover is a restart of a kv-write-shaped shard: a (k int64,
// v bytes) table of 4,000 keys with 256-byte values, loaded, then 8,000
// transactions of two updates each, and a crash that leaves only the log and
// no data page on the device. Each op recovers fresh copies of the two
// devices: Open's analysis pass, Recover's redo pass and the heap rebuild.
// MB/s is log bytes replayed per second; B/op is what a restart allocates.
func BenchmarkRecover(b *testing.B) {
	const keys, txns = 4000, 8000
	data := device.NewMem(page.Size, 1<<13)
	walDev := device.NewMem(page.Size, 1<<12)
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	)
	opts := DefaultOptions(data, walDev)
	opts.PoolFrames = 4096
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	tab, at, err := db.CreateTable(0, "kv", schema, "k")
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 256)
	for k := int64(0); k < keys; k += 100 {
		tx := db.Begin()
		for i := k; i < k+100; i++ {
			if at, err = tab.Insert(tx, at, tuple.Row{i, value}); err != nil {
				b.Fatal(err)
			}
		}
		if at, err = db.Commit(tx, at); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < txns; i++ {
		tx := db.Begin()
		for _, k := range []int64{int64(i*7919) % keys, int64(i*104729+1) % keys} {
			if at, err = tab.Update(tx, at, k, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[1] = value
				return r, nil
			})); err != nil {
				b.Fatal(err)
			}
		}
		if at, err = db.Commit(tx, at); err != nil {
			b.Fatal(err)
		}
	}
	db.Pool().InvalidateAll()
	logBytes := int64(db.WAL().Durable())

	b.SetBytes(logBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ropts := DefaultOptions(cloneMem(b, data), cloneMem(b, walDev))
		ropts.PoolFrames = opts.PoolFrames
		ropts.Recover = true
		b.StartTimer()
		rdb, err := Open(ropts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := rdb.CreateTable(0, "kv", schema, "k"); err != nil {
			b.Fatal(err)
		}
		if _, err := rdb.Recover(0); err != nil {
			b.Fatal(err)
		}
	}
}
