package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/wal"
	"sias/internal/wire"
)

// layerCounts turns the Stats() snapshots into per-layer counts: run is the
// measured phase (S0->S1), closing the final checkpoint (S2->S3).
func layerCounts(r readings, s0, s1, s2, s3 *snap, meas *phaseStats) {
	committed := meas.committed()
	reads, scans := len(meas.latencies(classR, txnLatency)), len(meas.latencies(classS, txnLatency))
	txns := float64(committed)
	d := func(f func(*snap) int64) float64 { return float64(f(s1) - f(s0)) }

	r.set("server.requests_per_txn", ratio(d(func(s *snap) int64 { return s.srv.Requests }), txns), committed)
	r.set("server.overloaded", d(func(s *snap) int64 { return s.srv.Overloaded }), 1)

	cross := d(func(s *snap) int64 { return s.router.CrossCommits })
	walWrites := d(func(s *snap) int64 { return s.eng.WALPageWrites })
	r.set("shard.cross_commits_per_txn", ratio(cross, txns), committed)
	r.set("shard.wal_writes_per_xcommit", ratio(walWrites, cross), int(cross))
	r.set("shard.prepares_per_xcommit", ratio(d(func(s *snap) int64 { return s.eng.Prepares }), cross), int(cross))
	r.set("shard.twopc_aborts", d(func(s *snap) int64 { return s.router.TwoPCAbortPrepare }), 1)
	// s2 is a freshly recovered deployment: its counters are what the last
	// recovery resolved.
	r.set("shard.indoubt", d(func(s *snap) int64 { return s.router.TwoPCInDoubt })+
		float64(s2.eng.InDoubtCommits+s2.eng.InDoubtAborts), 1)
	r.set("shard.torn_reads", float64(meas.torn), reads)

	flushes := d(func(s *snap) int64 { return s.eng.CommitFlushes })
	r.set("engine.flushes_per_txn", ratio(flushes, txns), committed)
	r.set("engine.commits_per_flush", ratio(d(func(s *snap) int64 { return s.eng.Commits }), flushes), int(flushes))
	r.set("engine.max_batch", float64(s1.eng.CommitMaxBatch), 1)

	r.set("wal.pages_per_flush", ratio(walWrites, flushes), int(flushes))
	r.set("wal.bytes_per_txn", ratio(float64(s1.walLSN-s0.walLSN), txns), committed)
	r.set("wal.fill_frac", s3.walFill(), 1)

	r.set("device.wal_writes_per_txn", ratio(d(func(s *snap) int64 { return s.eng.WALDevice.Writes }), txns), committed)
	r.set("device.data_writes_per_txn", ratio(d(func(s *snap) int64 { return s.eng.Data.Writes }), txns), committed)
	r.set("device.data_reads_per_txn", ratio(d(func(s *snap) int64 { return s.eng.Data.Reads }), txns), committed)

	hits := d(func(s *snap) int64 { return s.eng.Pool.Hits })
	misses := d(func(s *snap) int64 { return s.eng.Pool.Misses })
	issued := d(func(s *snap) int64 { return s.eng.Pool.PrefetchIssued })
	r.set("buffer.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.set("buffer.misses_per_txn", ratio(misses, txns), committed)
	r.set("buffer.evictions_per_txn", ratio(d(func(s *snap) int64 { return s.eng.Pool.Evictions }), txns), committed)
	r.set("buffer.dirty_out_per_txn", ratio(d(func(s *snap) int64 { return s.eng.Pool.DirtyOut }), txns), committed)
	r.set("buffer.read_waits", d(func(s *snap) int64 { return s.eng.Pool.ReadWaits }), 1)
	r.set("buffer.prefetch_issued_per_scan", ratio(issued, float64(scans)), scans)
	r.set("buffer.prefetch_wasted_frac", ratio(d(func(s *snap) int64 { return s.eng.Pool.PrefetchWasted }), issued), int(issued))

	updates := float64(meas.updates)
	walks := d(func(s *snap) int64 { return s.core.ChainWalks })
	gcPages := d(func(s *snap) int64 { return s.core.GCPages })
	sealed := float64(s1.core.PagesSealed - s0.core.PagesSealed + s3.core.PagesSealed - s2.core.PagesSealed)
	r.set("core.appends_per_update", ratio(d(func(s *snap) int64 { return s.core.Appends }), updates), meas.updates)
	r.set("core.chain_hops_per_walk", ratio(d(func(s *snap) int64 { return s.core.ChainHops }), walks), int(walks))
	r.set("core.sealed_fill", ratio(float64(s1.core.SealedTuples-s0.core.SealedTuples+s3.core.SealedTuples-s2.core.SealedTuples), sealed), int(sealed))
	r.set("core.gc_pages", gcPages, 1)
	r.set("core.gc_relocations_per_page", ratio(d(func(s *snap) int64 { return s.core.GCRelocations }), gcPages), int(gcPages))
	r.set("core.gc_discarded", d(func(s *snap) int64 { return s.core.GCDiscarded }), 1)

	vhit := d(func(s *snap) int64 { return s.eng.VMapResidencyHits })
	vmiss := d(func(s *snap) int64 { return s.eng.VMapResidencyMisses })
	r.set("vidmap.miss_frac", ratio(vmiss, vhit+vmiss), int(vhit+vmiss))

	r.set("index.inserts_per_update", ratio(d(func(s *snap) int64 { return s.core.IndexInserts }), updates), meas.updates)
	r.set("index.lookups_per_txn", ratio(d(func(s *snap) int64 { return s.core.IndexLookups }), txns), committed)
}

// The stand-alone drivers below time one layer's public functions on scratch
// files in the workload's directory. The wal and device drivers fsync: the
// workloads do not (README.md, "Why no fsync"), so this is where a synced
// deployment's cost per flush is read.

// standalone fills in the wal, device, buffer and wire timings.
func standalone(r readings, sp *spec, dir string) error {
	if err := walDriver(r, sp, dir); err != nil {
		return err
	}
	if err := deviceDriver(r, dir); err != nil {
		return err
	}
	if err := bufferDriver(r, dir); err != nil {
		return err
	}
	return wireDriver(r, sp)
}

// walDriver appends the records one write transaction produces (two heap
// after-images and a commit) and flushes to a synced device, as a lone
// committer does.
func walDriver(r readings, sp *spec, dir string) error {
	dev, err := device.OpenFile(filepath.Join(dir, "scratch-wal.img"), page.Size, 1<<14)
	if err != nil {
		return err
	}
	defer dev.Close()
	dev.SetSyncOnWrite(true)
	w := wal.NewWriter(dev)
	image := make([]byte, sp.valueSize+32)
	const rounds = 400
	appends := make([]int64, 0, 3*rounds)
	flushes := make([]int64, 0, rounds)
	for i := 0; i < rounds; i++ {
		var lsn wal.LSN
		for _, rec := range []*wal.Record{
			{Type: wal.RecHeapInsert, Tx: 1, Rel: 1, Data: image},
			{Type: wal.RecHeapInsert, Tx: 1, Rel: 1, Data: image},
			{Type: wal.RecCommit, Tx: 1},
		} {
			t0 := time.Now()
			lsn = w.Append(rec)
			appends = append(appends, time.Since(t0).Nanoseconds())
		}
		t0 := time.Now()
		if _, err := w.Flush(0, lsn); err != nil {
			return err
		}
		flushes = append(flushes, time.Since(t0).Nanoseconds())
	}
	r.set("wal.append_ns", quantile(appends, 0.5), len(appends))
	r.set("wal.flush_p50_us", quantile(flushes, 0.5)/1e3, len(flushes))
	return nil
}

// deviceDriver times File.WritePage with sync on and off and random ReadPage
// on a 64 MB scratch file. Nothing in the program moves these: they are the
// sandbox's own drift, and a shift here explains a shift everywhere.
func deviceDriver(r readings, dir string) error {
	const pages = 8192
	dev, err := device.OpenFile(filepath.Join(dir, "scratch-dev.img"), page.Size, pages)
	if err != nil {
		return err
	}
	defer dev.Close()
	buf := make([]byte, page.Size)
	rng := rand.New(rand.NewSource(1))
	timeOps := func(n int, op func(p int64) error) ([]int64, error) {
		out := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			p := rng.Int63n(pages)
			t0 := time.Now()
			if err := op(p); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0).Nanoseconds())
		}
		return out, nil
	}
	write := func(p int64) error { _, err := dev.WritePage(0, p, buf); return err }
	plain, err := timeOps(pages, write)
	if err != nil {
		return err
	}
	dev.SetSyncOnWrite(true)
	synced, err := timeOps(300, write)
	if err != nil {
		return err
	}
	reads, err := timeOps(4000, func(p int64) error { _, err := dev.ReadPage(0, p, buf); return err })
	if err != nil {
		return err
	}
	r.set("device.write_p50_us", quantile(plain, 0.5)/1e3, len(plain))
	r.set("device.sync_write_p50_us", quantile(synced, 0.5)/1e3, len(synced))
	r.set("device.read_p50_us", quantile(reads, 0.5)/1e3, len(reads))
	return nil
}

// bufferDriver times Pool.Get+Release on resident pages and on pages that
// each evict a clean victim.
func bufferDriver(r readings, dir string) error {
	const frames, pages = 256, 4096
	dev, err := device.OpenFile(filepath.Join(dir, "scratch-pool.img"), page.Size, pages)
	if err != nil {
		return err
	}
	defer dev.Close()
	zero := make([]byte, page.Size)
	for p := int64(0); p < pages; p++ { // so that a miss reads a written page
		if _, err := dev.WritePage(0, p, zero); err != nil {
			return err
		}
	}
	pool := buffer.New(buffer.Config{Frames: frames}, dev)
	touch := func(p int64) (int64, error) {
		t0 := time.Now()
		f, _, err := pool.Get(0, p, false)
		if err != nil {
			return 0, err
		}
		pool.Release(f, false)
		return time.Since(t0).Nanoseconds(), nil
	}
	var hits, misses []int64
	for i := 0; i < 100000; i++ {
		d, err := touch(int64(i % (frames / 2)))
		if err != nil {
			return err
		}
		if i >= frames {
			hits = append(hits, d)
		}
	}
	for i := 0; i < 8000; i++ {
		d, err := touch(int64(frames + i%(pages-frames)))
		if err != nil {
			return err
		}
		misses = append(misses, d)
	}
	r.set("buffer.get_hit_ns", quantile(hits, 0.5), len(hits))
	r.set("buffer.get_miss_us", quantile(misses, 0.5)/1e3, len(misses))
	return nil
}

// wireDriver times the codec (WriteFrame+ReadFrame of the workload's UPDATE
// request and its reply through a bytes.Buffer) and the same two frames
// echoed over a bare loopback TCP pair with no server behind it: the floor
// under every client.* timing.
func wireDriver(r readings, sp *spec) error {
	var req wire.Buf
	req.U64(1)
	req.I64(1)
	req.Bytes(make([]byte, sp.valueSize))

	const codecRounds = 50000
	var bb bytes.Buffer
	t0 := time.Now()
	for i := 0; i < codecRounds; i++ {
		bb.Reset()
		for _, payload := range [][]byte{req.B, nil} {
			if err := wire.WriteFrame(&bb, uint8(wire.OpUpdate), payload); err != nil {
				return err
			}
			if _, _, err := wire.ReadFrame(&bb); err != nil {
				return err
			}
		}
	}
	r.set("wire.codec_ns_per_frame", float64(time.Since(t0).Nanoseconds())/(2*codecRounds), 2*codecRounds)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for {
			if _, _, err := wire.ReadFrame(conn); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoed <- err
				return
			}
			if err := wire.WriteFrame(conn, 0, nil); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	rtts := make([]int64, 0, 10000)
	for i := 0; i < cap(rtts); i++ {
		t0 := time.Now()
		if err := wire.WriteFrame(conn, uint8(wire.OpUpdate), req.B); err != nil {
			conn.Close()
			return err
		}
		if _, _, err := wire.ReadFrame(conn); err != nil {
			conn.Close()
			return err
		}
		rtts = append(rtts, time.Since(t0).Nanoseconds())
	}
	conn.Close()
	if err := <-echoed; err != nil {
		return err
	}
	r.set("wire.loopback_rtt_us", quantile(rtts, 0.5)/1e3, len(rtts))
	return nil
}
