package engine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// TestConcurrentReadsUnderEviction drives concurrent facade reads and
// updates against a pool deliberately smaller than the dataset, so every
// worker's page accesses race with evictions and dirty write-backs in the
// striped pool. Run under -race this is the engine-level proof that the
// partition-mutex/frame-latch protocol holds on the real read path (index
// descent, chain/heap fetch, VIDmap) and that rows never tear.
func TestConcurrentReadsUnderEviction(t *testing.T) {
	pad := strings.Repeat("x", 512) // fat rows: ~14 per page, dataset >> pool
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			data := device.NewMem(page.Size, 1<<16)
			walDev := device.NewMem(page.Size, 1<<14)
			opts := DefaultOptions(data, walDev)
			opts.Kind = k
			// The pool picks one stripe per 64 frames: 256 frames is 4 stripes.
			opts.PoolFrames = 256
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tab, _, err := db.CreateTable(0, "accounts", testSchema(), "id")
			if err != nil {
				t.Fatal(err)
			}
			f := NewFacade(db)

			const rows = 8000 // ~700 allocated pages against 256 frames
			for lo := int64(0); lo < rows; lo += 250 {
				setup := f.Begin()
				for i := lo; i < lo+250; i++ {
					if err := f.Insert(tab, setup, tuple.Row{i, pad, i}); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.Commit(setup); err != nil {
					t.Fatal(err)
				}
			}

			const (
				workers = 6
				opsEach = 150
			)
			var bad atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := seed
					for op := 0; op < opsEach; op++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						key := (rng >> 33) % rows
						if key < 0 {
							key = -key
						}
						tx := f.Begin()
						if op%10 == 0 {
							err := f.Update(tab, tx, key, func(r tuple.Row) (tuple.Row, error) {
								r[2] = r[2].(int64) + rows
								return r, nil
							})
							if err != nil {
								f.Abort(tx)
								if errors.Is(err, txn.ErrSerialization) || errors.Is(err, txn.ErrLockTimeout) {
									continue
								}
								t.Errorf("update %d: %v", key, err)
								return
							}
							if err := f.Commit(tx); err != nil {
								t.Errorf("commit: %v", err)
								return
							}
							continue
						}
						row, err := f.Get(tab, tx, key)
						if err != nil {
							t.Errorf("get %d: %v", key, err)
							f.Abort(tx)
							return
						}
						// Balance is key plus some multiple of rows; anything
						// else is a torn or misdirected read.
						if bal := row[2].(int64); bal%rows != key%rows {
							bad.Add(1)
						}
						f.Abort(tx)
					}
				}(int64(w + 1))
			}
			wg.Wait()

			if n := bad.Load(); n > 0 {
				t.Fatalf("%d torn/misdirected reads", n)
			}
			st := f.Stats()
			if st.Pool.Evictions == 0 {
				t.Fatal("dataset did not overflow the pool; no evictions exercised")
			}
			if st.PoolPartitions < 4 || len(st.Pool.PartitionEvictions) != st.PoolPartitions {
				t.Fatalf("partitions = %d (evict slices %d), want >= 4 chosen by the pool", st.PoolPartitions, len(st.Pool.PartitionEvictions))
			}
			if st.PoolHitRatio <= 0 || st.PoolHitRatio > 1 {
				t.Fatalf("hit ratio %v out of range", st.PoolHitRatio)
			}
		})
	}
}
