package main

import (
	"testing"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/server"
	"sias/internal/shard"
)

// TestEngineDelta pins what the load report derives from two STATS replies:
// the engine.Stats delta, aggregated from the replies' engine field and per
// shard from their shards, every leaf of the struct included.
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
	reply := func(ss ...engine.Stats) server.StatsReply {
		return server.StatsReply{Engine: shard.Aggregate(ss), Shards: ss}
	}
	before := reply(shardAt(1), shardAt(2))
	after := reply(shardAt(4), shardAt(3))

	d, per := statsDelta(before, after)
	if d.Commits != 400 || d.ReadOnlyCommits != 40 || d.CommitFlushes != 120 ||
		d.Pool.Hits != 360 || d.Pool.Misses != 40 || d.PoolHitRatio != 0.9 || d.PoolPartitions != 4 || d.Data.Reads != 44 {
		t.Errorf("engine deltas %+v", d)
	}
	if d.Prepares != 28 || d.Pool.DirtyOut != 20 || d.Data.PhysWrites != 12 || d.WALDevice.Writes != 160 ||
		d.WALDevice.BytesWritten != 160*8192 || d.VMapResidencyMisses != 16 || d.VMapHitRatio != 0 ||
		d.AllocatedPages != 50+4+50+3 || d.Tables[0].ChainHops != 24 || d.Tables[0].Rows != 2007 {
		t.Errorf("engine-wide delta drops or mangles fields: %+v", d)
	}
	if len(per) != 2 || per[0].Commits != 300 || per[0].CommitFlushes != 90 || per[0].CommitMaxBatch != 6 || per[1].Commits != 100 {
		t.Errorf("per-shard deltas %+v (max batch is a high-water mark: the later value)", per)
	}
	if after.Shards[0].Commits != 400 || after.Shards[0].Tables[0].ChainHops != 24 || after.Shards[0].Pool.PartitionEvictions[1] != 8 {
		t.Errorf("taking a delta modified the later snapshot: %+v", after.Shards[0])
	}
}
