package main

import (
	"testing"
	"time"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/server"
)

// TestEngineDelta pins what the load report derives from two STATS replies.
// The second half is fields the report does not print today but any delta
// must carry: the hand-written subtraction this replaced copied 20 of the
// struct's leaves and left these reading 0.
func TestEngineDelta(t *testing.T) {
	shardAt := func(k int64) engine.Stats {
		return engine.Stats{
			Commits: 100 * k, ReadOnlyCommits: 10 * k, CommitFlushes: 30 * k, CommitMaxBatch: 2 + k, Prepares: 7 * k,
			Pool:           buffer.Stats{Hits: 90 * k, Misses: 10 * k, DirtyOut: 5 * k, PartitionEvictions: []int64{k, 2 * k}},
			PoolPartitions: 2,
			Data:           device.Stats{Reads: 11 * k, PhysWrites: 3 * k},
			WALDevice:      device.Stats{Writes: 40 * k, BytesWritten: 40 * 8192 * k},
			AllocatedPages: 50 + k, VMapResidencyMisses: 4 * k,
			Tables: []engine.TableStats{{Name: "kv", Rows: 1000 + k, ChainHops: 6 * k}},
		}
	}
	before := server.StatsReply{Shards: []engine.Stats{shardAt(1), shardAt(2)}}
	after := server.StatsReply{Shards: []engine.Stats{shardAt(4), shardAt(3)}}

	res := summarize(loadConfig{Shards: 2}, time.Second, nil, before, after)
	if e := res.Engine; e.Commits != 400 || e.ReadOnlyCommits != 40 || e.CommitFlushes != 120 ||
		e.PoolHits != 360 || e.PoolMisses != 40 || e.PoolHitRatio != 0.9 || e.PoolPartitions != 4 || e.DataReads != 44 ||
		e.FlushesPerCommit != 120.0/360 {
		t.Errorf("engine deltas %+v", e)
	}
	if s := res.PerShard[0]; s.Commits != 300 || s.CommitFlushes != 90 || s.CommitMaxBatch != 6 {
		t.Errorf("shard 0 deltas %+v (max batch is a high-water mark: the later value)", s)
	}

	d := engineDelta(before, after)
	if d.Prepares != 28 || d.Pool.DirtyOut != 20 || d.Data.PhysWrites != 12 || d.WALDevice.Writes != 160 ||
		d.WALDevice.BytesWritten != 160*8192 || d.VMapResidencyMisses != 16 || d.VMapHitRatio != 0 ||
		d.AllocatedPages != 50+4+50+3 || d.Tables[0].ChainHops != 24 || d.Tables[0].Rows != 2007 {
		t.Errorf("engine-wide delta drops or mangles fields: %+v", d)
	}
	if after.Shards[0].Commits != 400 || after.Shards[0].Tables[0].ChainHops != 24 || after.Shards[0].Pool.PartitionEvictions[1] != 8 {
		t.Errorf("taking a delta modified the later snapshot: %+v", after.Shards[0])
	}
}
