package main

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/wal"
)

const (
	episodes     = 5    // fresh deployments per run; see episode
	crashRounds  = 2    // crash/reopen rounds per episode
	maxDiscards  = 4    // episodes a run may repeat for the seed's scanner defect
	warmupTxns   = 2000 // untimed transactions per client before S0
	preloadBatch = 100  // inserts per preload transaction
)

// result is everything one run of one workload produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Error     string   `json:"error,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
}

// config is what the flags select.
type config struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	dir     string // parent of the per-run work directories
	out     string // where results.json and spans go; "" = nowhere
}

// scaled shrinks the dataset for quick runs (bench_test.go); the shape stays.
func (sp spec) scaled(f float64) spec {
	if f != 1 {
		sp.keys = max(int(float64(sp.keys)*f)&^3, 4*scanRows)
		sp.poolFrames = max(int(float64(sp.poolFrames)*f), 128*sp.shards)
	}
	return sp
}

// setUp builds the deployment in dir the way every workload starts: open,
// preload once from one client, untimed warm-up, first checkpoint.
func setUp(sp *spec, cfg *config, seed int64, dir string) (*stack, *world, error) {
	st, _, err := openStack(sp, dir, false)
	if err != nil {
		return nil, nil, err
	}
	w := newWorld(sp, seed)
	// Never insert an existing key: the engine accepts it and range scans
	// then return both rows.
	val := make([]byte, sp.valueSize)
	for base := 0; base < sp.keys; base += preloadBatch {
		tx, err := st.clients[0].Begin()
		if err != nil {
			st.kill()
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		for i := base; i < min(base+preloadBatch, sp.keys); i++ {
			encodeValue(val, w.or.keys[i], 0, w.or.owner(i))
			if err := tx.Insert(w.or.keys[i], val); err != nil {
				st.kill()
				return nil, nil, fmt.Errorf("preload key %d: %w", w.or.keys[i], err)
			}
		}
		if err := tx.Commit(); err != nil {
			st.kill()
			return nil, nil, fmt.Errorf("preload commit: %w", err)
		}
	}
	warm := w.drive(st.clientRungs(), nil, w.forCount(max(int(warmupTxns*cfg.scale), 50)), false, nil)
	if warm.failed > 0 {
		st.kill()
		return nil, nil, fmt.Errorf("warm-up: %d of %d transactions failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	if err := st.router.Checkpoint(); err != nil {
		st.kill()
		return nil, nil, err
	}
	return st, w, nil
}

// verify re-reads the whole keyspace on a quiesced deployment through the
// full stack, as a sweep of 128-row scan transactions split over the clients:
// cardinality, order, no duplicates, every acknowledged write present, xshard
// groups uniform.
func (w *world) verify(rungs []beginner) phaseStats {
	n := len(w.order)
	var starts []int
	for pos := 0; pos < n; pos += scanRows {
		starts = append(starts, min(pos, n-scanRows))
	}
	per := (len(starts) + clients - 1) / clients
	seen := make([]uint64, n)
	for i := range seen {
		seen[i] = ^uint64(0)
	}
	next := func(c, done int) (txnPlan, bool) {
		mine := starts[min(c*per, len(starts)):min((c+1)*per, len(starts))]
		if done < len(mine) {
			return txnPlan{class: classS, idx: [4]int{mine[done]}, n: 1}, true
		}
		return txnPlan{}, false
	}
	st := w.drive(rungs, nil, next, true, seen)
	for i, seq := range seen {
		var err error
		switch {
		case st.failed > 0:
			// the failed transaction already says what is wrong
		case seq == ^uint64(0):
			err = fmt.Errorf("key %d was not returned by the verification sweep", w.or.keys[i])
		case w.sp.xshard && i%2 == 1 && seq != seen[i-1]:
			err = fmt.Errorf("group of key %d is torn after recovery: tokens %d and %d", w.or.keys[i-1], seen[i-1], seq)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
	return st
}

// errLogUnreadable reports a log that the seed's wal.Scan cannot read back
// in full (README.md, "Seed defect"): recovery from it cannot succeed.
var errLogUnreadable = errors.New("wal.Scan skips intact records of this log")

// episode is one pass over a fresh deployment: set-up, S0, a share of the
// measured transactions, S1, crashRounds x [crash, recover, verify], S2,
// closing checkpoint, S3. A run is `episodes` of them, and every end-to-end
// reading is the median over them, so a few bad seconds on the host move one
// episode and not the run.
type episode struct {
	setup          float64 // seconds
	meas, checks   phaseStats
	recovers       []float64 // seconds, one per crash round
	checkpoint     time.Duration
	s0, s1, s2, s3 snap
}

// runEpisode runs one episode with the given stream seed in a directory of
// its own. after, if not nil, runs on the live deployment before it is torn
// down (the traced ladder).
func runEpisode(sp *spec, cfg *config, seed int64, perClient int, after func(*stack, *world, string) error) (*episode, error) {
	dir, err := newWorkDir(cfg.dir, sp.name)
	if err != nil {
		return nil, err
	}
	var st *stack
	defer func() {
		if st != nil {
			st.kill()
		}
		removeWorkDir(dir)
		debug.FreeOSMemory() // a killed deployment's memory is not the next one's
	}()
	ep := &episode{}
	t0 := time.Now()
	st, w, err := setUp(sp, cfg, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ep.setup = time.Since(t0).Seconds()

	ep.s0 = st.snap()
	ep.meas = w.drive(st.clientRungs(), nil, w.forCount(perClient), false, nil)
	ep.s1 = st.snap()

	// Crash and reopen: process-crash durability (the OS cache survives; a
	// power loss needs a device that drops unsynced writes).
	for i := 0; i < crashRounds; i++ {
		// The deployment is idle, so the log on the device is complete.
		if skipped, err := logSkipped(sp, dir); err != nil {
			return nil, err
		} else if skipped > 0 {
			return nil, fmt.Errorf("%w (%d bytes before crash round %d)", errLogUnreadable, skipped, i+1)
		}
		st.kill()
		st = nil
		debug.FreeOSMemory()
		next, d, err := openStack(sp, dir, true)
		if err != nil {
			return nil, fmt.Errorf("recovery round %d: %w", i+1, err)
		}
		st = next
		ep.recovers = append(ep.recovers, d.Seconds())
		v := w.verify(st.clientRungs())
		ep.checks.merge(&v)
	}
	ep.s2 = st.snap()
	t0 = time.Now()
	if err := st.router.Checkpoint(); err != nil {
		return nil, fmt.Errorf("closing checkpoint: %w", err)
	}
	ep.checkpoint = time.Since(t0)
	ep.s3 = st.snap()
	if fill := ep.s3.walFill(); fill > walFillLimit {
		return nil, fmt.Errorf("WAL is %.0f%% full (limit %.0f%%): the log is never recycled, shorten the run or grow walPages",
			100*fill, 100*walFillLimit)
	}
	if after != nil {
		return ep, after(st, w, dir)
	}
	return ep, nil
}

// runWire runs one wire workload end to end. An episode whose log trips the
// seed's scanner defect is discarded, reported and repeated on a fresh
// directory: it is a rare event of the seed (a few percent of logs this size)
// that says nothing about the numbers, and gating on it would be a coin flip.
func runWire(sp spec, cfg *config) (*result, error) {
	sp = sp.scaled(cfg.scale)
	resetPeakRSS()

	// The measured phase is a fixed amount of work sized by -seconds, not a
	// fixed time: both sides of any later comparison do the same work, and
	// the counts (write_amp, space_amp) do not depend on the machine's speed.
	perClient := max(int(float64(sp.rate)*cfg.seconds/episodes), 10)
	res := &result{Workload: sp.name, Seed: cfg.seed}
	var (
		eps      []*episode
		all      phaseStats // the measured phases of every episode
		firstErr error
		l        readings
		traced   reading // the client rung's throughput, spans on
	)
	for discarded := 0; len(eps) < episodes; {
		var after func(*stack, *world, string) error
		if cfg.trace && len(eps) == episodes-1 {
			l = readings{}
			after = func(st *stack, w *world, dir string) error {
				ps, rate, err := ladder(l, st, w, cfg, max(perClient*episodes/8, 10))
				if err != nil {
					return err
				}
				traced = rate
				res.Attempted += ps.attempted
				res.Failed += ps.failed
				firstErr = ps.firstErr
				if err := standalone(l, &sp, dir); err != nil {
					return fmt.Errorf("stand-alone drivers: %w", err)
				}
				return nil
			}
		}
		ep, err := runEpisode(&sp, cfg, cfg.seed*episodes+int64(len(eps)), perClient, after)
		if errors.Is(err, errLogUnreadable) && discarded < maxDiscards {
			discarded++
			fmt.Printf("# %s: episode %d discarded: %v\n", sp.name, len(eps)+1, err)
			continue
		}
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		fmt.Printf("# %s episode %d: setup_s=%.4f txn_per_s=%.0f wtxn_avg_ms=%.4f rtxn_avg_ms=%.4f scan_avg_ms=%.4f commit_avg_ms=%.4f recover_s=%.4f\n",
			sp.name, len(eps), ep.setup, windowedRate(ep.meas.txns),
			mean(ep.meas.latencies(classW, txnLatency))/1e6, mean(ep.meas.latencies(classR, txnLatency))/1e6,
			mean(ep.meas.latencies(classS, txnLatency))/1e6, mean(ep.meas.latencies(classW, commitLatency))/1e6, ep.recovers)
		res.Attempted += ep.meas.attempted + ep.checks.attempted
		res.Failed += ep.meas.failed + ep.checks.failed
		firstErr = cmp.Or(ep.meas.firstErr, ep.checks.firstErr, firstErr)
		all.merge(&ep.meas)
	}

	over := func(f func(*episode) float64) float64 {
		var vs []float64
		for _, ep := range eps {
			vs = append(vs, f(ep))
		}
		return median(vs)
	}
	avgMs := func(c int) float64 {
		return over(func(ep *episode) float64 { return mean(ep.meas.latencies(c, txnLatency)) / 1e6 })
	}
	var recovers []float64
	for _, ep := range eps {
		recovers = append(recovers, ep.recovers...)
	}
	wtxn, rtxn, scan := all.latencies(classW, txnLatency), all.latencies(classR, txnLatency), all.latencies(classS, txnLatency)
	commit := all.latencies(classW, commitLatency)
	txnPerS := over(func(ep *episode) float64 { return windowedRate(ep.meas.txns) })
	e := readings{}
	e.set("setup_s", over(func(ep *episode) float64 { return ep.setup }), len(eps))
	e.set("txn_per_s", txnPerS, all.committed())
	e.set("wtxn_avg_ms", avgMs(classW), len(wtxn))
	if len(rtxn) > 0 {
		e.set("rtxn_avg_ms", avgMs(classR), len(rtxn))
	} else {
		// Every workload reports every end-to-end metric, and kv-write reads
		// nothing: there the metric reads the transactions the workload has.
		e.set("rtxn_avg_ms", avgMs(classW), len(wtxn))
	}
	e.set("commit_avg_ms", over(func(ep *episode) float64 { return mean(ep.meas.latencies(classW, commitLatency)) / 1e6 }), len(commit))
	e.set("write_amp", over(func(ep *episode) float64 {
		written := ep.s1.eng.WALDevice.BytesWritten - ep.s0.eng.WALDevice.BytesWritten + ep.s1.eng.Data.BytesWritten - ep.s0.eng.Data.BytesWritten +
			ep.s3.eng.WALDevice.BytesWritten - ep.s2.eng.WALDevice.BytesWritten + ep.s3.eng.Data.BytesWritten - ep.s2.eng.Data.BytesWritten
		return ratio(float64(written), float64(ep.meas.updates*sp.valueSize))
	}), all.updates)
	e.set("space_amp", over(func(ep *episode) float64 {
		return float64(ep.s3.eng.AllocatedPages*page.Size) / float64(sp.keys*sp.valueSize)
	}), len(eps))
	e.set("recover_s", median(recovers), len(recovers))

	if cfg.trace {
		// Percentiles are over the measured phases of every episode; counts
		// and the one-off timings are the last episode's, the one the ladder
		// ran on.
		last := eps[len(eps)-1]
		l.set("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		l.set("client.wtxn_p50_ms", quantile(wtxn, 0.5)/1e6, len(wtxn))
		l.set("client.wtxn_p95_ms", windowedQuantile(wtxn, 0.95)/1e6, len(wtxn))
		l.set("client.rtxn_p50_ms", quantile(rtxn, 0.5)/1e6, len(rtxn))
		l.set("client.rtxn_p95_ms", windowedQuantile(rtxn, 0.95)/1e6, len(rtxn))
		l.set("client.scan_avg_ms", avgMs(classS), len(scan))
		l.set("client.scan_p50_ms", quantile(scan, 0.5)/1e6, len(scan))
		l.set("client.commit_p50_ms", quantile(commit, 0.5)/1e6, len(commit))
		l.set("client.trace_overhead_pct", 100*(1-traced.value/txnPerS), traced.n)
		layerCounts(l, &last.s0, &last.s1, &last.s2, &last.s3, &last.meas)
		l.set("engine.checkpoint_ms", float64(last.checkpoint.Nanoseconds())/1e6, 1)
		walMB := float64(last.s1.walLSN) / (1 << 20)
		l.set("engine.recover_wal_mb", walMB, 1)
		l.set("engine.recover_mb_per_s", ratio(walMB, last.recovers[0]), 1)
		l.zero(func(name string) bool { return simOnly[name] })
	}
	e.set("peak_rss_mb", peakRSSMB(), 1)
	return finish(res, e, l, firstErr)
}

// logSkipped replays every shard's log from outside, the way engine.Open's
// pre-scan will, and returns how many bytes of intact records wal.Scan
// stepped over. The deployment is idle and its log flushed, so the records of
// one generation follow each other without a gap, generations are separated
// by zeros only, and only zeros follow the last record; anything else between
// or after the records wal.Scan returns is log it lost.
func logSkipped(sp *spec, dir string) (int64, error) {
	var skipped int64
	for i := 0; i < sp.shards; i++ {
		dev, err := device.OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%d", i), "wal.img"), page.Size, walPages)
		if err != nil {
			return 0, err
		}
		// lost counts the bytes of [from, to) from the first non-zero one on.
		buf := make([]byte, page.Size)
		lost := func(from, to wal.LSN) (int64, error) {
			for off := from; off < to; off++ {
				if off == from || int(off)%page.Size == 0 {
					if _, err := dev.ReadPage(0, int64(off)/page.Size, buf); err != nil {
						return 0, err
					}
				}
				if buf[int(off)%page.Size] != 0 {
					return int64(to - off), nil
				}
			}
			return 0, nil
		}
		next := wal.LSN(0)
		header := len(wal.EncodeRecord(&wal.Record{}))
		_, err = wal.Scan(dev, func(lsn wal.LSN, rec wal.Record) error {
			n, err := lost(next, lsn)
			skipped += n
			next = lsn + wal.LSN(header+len(rec.Data))
			return err
		})
		if err == nil {
			var n int64
			n, err = lost(next, min(next+2*page.Size, walPages*page.Size))
			skipped += n
		}
		dev.Close()
		if err != nil {
			return 0, fmt.Errorf("shard %d: scan log: %w", i, err)
		}
	}
	return skipped, nil
}

// ladder re-runs the workload's stream on the loaded deployment once per
// rung, with a span recorded here around every call into the rung's layer.
// A layer's self time is the difference of medians between adjacent rungs,
// reported as is even where noise makes it slightly negative.
func ladder(l readings, st *stack, w *world, cfg *config, perClient int) (total phaseStats, traced reading, err error) {
	epoch := time.Now()
	var all []*spanLog
	p50 := map[string]float64{}
	for ri, rung := range []struct {
		layer string
		begin []beginner
	}{
		{"client", st.clientRungs()},
		{"shard", st.rungs(func(int) beginner { return shardRung(st.router) })},
		{"engine", st.rungs(func(int) beginner { return engineRung(st.router) })},
	} {
		logs := make([]*spanLog, clients)
		for c := range logs {
			logs[c] = &spanLog{layer: rung.layer, base: int64(ri*clients+c) << 40, epoch: epoch}
		}
		ps := w.drive(rung.begin, logs, w.forCount(perClient), false, nil)
		total.merge(&ps)
		for _, op := range []string{"begin", "get", "update", "scan", "commit"} {
			ds := durations(logs, op)
			name := op
			if rung.layer == "engine" && op == "scan" {
				name = "range"
			}
			p50[rung.layer+"."+op] = quantile(ds, 0.5) / 1e3
			if rung.layer != "shard" {
				l.set(rung.layer+"."+name+"_p50_us", p50[rung.layer+"."+op], len(ds))
			}
		}
		if rung.layer == "client" {
			traced = reading{windowedRate(ps.txns), ps.committed()}
		}
		all = append(all, logs...)
	}
	for _, op := range []string{"get", "update", "commit", "scan"} {
		l.set("server.self_"+op+"_us", p50["client."+op]-p50["shard."+op], 1)
	}
	l.set("shard.commit_p50_us", p50["shard.commit"], 1)
	l.set("shard.self_commit_us", p50["shard.commit"]-p50["engine.commit"], 1)
	if cfg.out != "" {
		if err := writeSpans(filepath.Join(cfg.out, w.sp.name+".spans.jsonl"), all); err != nil {
			return total, traced, err
		}
	}
	return total, traced, nil
}

// finish orders the readings by their declarations and settles the verdict.
func finish(res *result, e, l readings, firstErr error) (*result, error) {
	var err error
	if res.EndToEnd, err = e.ordered(endToEnd); err != nil {
		return nil, err
	}
	if l != nil {
		if res.PerLayer, err = l.ordered(perLayer); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if firstErr != nil {
		res.Error = firstErr.Error()
	}
	return res, nil
}
