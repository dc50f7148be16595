// Command siasload is a closed-loop load generator for siasserver: N
// workers each run begin → (reads|update mix) → commit in a loop over a
// pooled client, then the tool prints throughput, transaction latency
// percentiles and the engine/server counter deltas — overall and per shard,
// so group-commit effectiveness and WAL flush sharing are visible for every
// partition. Transactions whose keys all hash to one shard are attributed
// to it; the rest are reported as cross-shard.
//
// Usage:
//
//	siasload [-addr :4544] [-workers 8] [-txns 2000] [-keys 1024]
//	         [-read-frac 0.5] [-replicas ADDR,...] [-json FILE]
//	         [-metrics-addr HOST:PORT] [-trace-sample F]
//	         [-workload kv|index|xshard] [-state-out FILE] [-verify-state FILE]
//	         [-groups N] [-expect-crash] [-xshard-verify] [-stats-only]
//
// Every kv and index transaction runs 2 data ops; kv writes carry 64-byte
// values. With -json, a machine-readable result (the same numbers as the
// text report) is written to FILE.
//
// With -workload index, the loop runs against a catalog table with a
// secondary index instead of the kv table: reads are index lookups, writes
// are typed row updates (mostly of a non-indexed column), and the run ends
// with an AS OF verification against a pre-churn snapshot; see index.go.
// -state-out/-verify-state persist and check that snapshot across a server
// restart, which is how CI proves catalog DDL and AS OF survive a crash.
//
// With -workload xshard, every transaction rewrites a whole cross-shard key
// group (one key per shard) to a fresh uniform token, exercising the 2PC
// commit path; -expect-crash makes a server dying mid-run (CI's
// SIAS_CRASHPOINT fault injection) the expected end, and -xshard-verify
// rereads every group on a restarted server — or a caught-up follower — and
// asserts all members are equal, proving all-or-nothing; see xshard.go.
//
// -trace-sample F traces that fraction of transactions end to end (TRACE
// envelopes); with -metrics-addr pointed at the server's observability
// listener, the tool fetches the sampled traces back from /debug/traces and
// reports p50/p99 per commit-pipeline stage (route, prepare, decide,
// outcome, fsync). The server's own per-op latency summary rides the STATS
// reply (its ops field), which -stats-only dumps.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sias/internal/client"
	"sias/internal/engine"
	"sias/internal/repl"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/txn"
	"sias/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4544", "server address")
	workers := flag.Int("workers", 8, "concurrent closed-loop workers")
	txns := flag.Int("txns", 2000, "transactions per worker")
	keys := flag.Int64("keys", 1024, "keyspace size")
	readFrac := flag.Float64("read-frac", 0.5, "fraction of ops that are reads")
	replicas := flag.String("replicas", "", "comma-separated follower addresses; pure-read transactions are routed to them when they cover the worker's commit point (read-your-writes)")
	jsonPath := flag.String("json", "", "write a machine-readable result JSON to this file")
	statsOnly := flag.Bool("stats-only", false, "fetch STATS, print the raw reply JSON (to -json FILE if set, else stdout), and exit")
	metricsAddr := flag.String("metrics-addr", "", "server observability listener to fetch sampled traces from (/debug/traces) with -trace-sample (empty = skip)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of transactions traced end to end (TRACE envelopes); with -metrics-addr, the per-stage span breakdown from /debug/traces joins the report")
	workload := flag.String("workload", "kv", "workload: kv (key/value ops), index (typed table with secondary-index lookups and AS OF verification) or xshard (cross-shard group rewrites)")
	stateOut := flag.String("state-out", "", "index workload: write snapshot tokens and group counts to this file for a later -verify-state run")
	verifyPath := flag.String("verify-state", "", "verify a recovered server against a -state-out file and exit")
	groups := flag.Int("groups", 64, "xshard workload: cross-shard key groups (one key per shard each)")
	expectCrash := flag.Bool("expect-crash", false, "xshard workload: treat the server dying mid-run (transport failure, in-doubt commit) as the expected end instead of an error")
	verifyXshard := flag.Bool("xshard-verify", false, "verify cross-shard atomicity on a recovered server: reread every xshard group, assert all members equal, and exit")
	flag.Parse()
	if *statsOnly {
		if err := dumpStats(*addr, *jsonPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *verifyPath != "" {
		if err := verifyState(*addr, *verifyPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *verifyXshard {
		if err := verifyXShard(*addr, *groups); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := loadConfig{
		Addr: *addr, Workers: *workers, Txns: *txns, Keys: *keys,
		ReadFrac: *readFrac, MetricsAddr: *metricsAddr,
		Workload: *workload, TraceSample: *traceSample,
	}
	if *replicas != "" {
		for _, a := range strings.Split(*replicas, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Replicas = append(cfg.Replicas, a)
			}
		}
	}
	switch *workload {
	case "kv":
		if err := run(cfg, *jsonPath); err != nil {
			log.Fatal(err)
		}
	case "index":
		if err := runIndex(cfg, *jsonPath, *stateOut); err != nil {
			log.Fatal(err)
		}
	case "xshard":
		// Cross-shard 2PC atomicity workload: group rewrites spanning every
		// shard, with an all-or-nothing verify pass; see xshard.go.
		if err := runXShard(cfg, *jsonPath, *groups, *expectCrash); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -workload %q (want kv, index or xshard)", *workload)
	}
}

// dumpStats fetches one STATS reply and emits it as indented JSON — the
// handle CI scripts use to assert on replication lag and promotion state.
func dumpStats(addr, jsonPath string) error {
	c, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if jsonPath != "" {
		return os.WriteFile(jsonPath, blob, 0o644)
	}
	_, err = os.Stdout.Write(blob)
	return err
}

// The shape of a kv or index transaction: its data-op count and, for kv
// writes, the value size in bytes.
const (
	opsPerTxn = 2
	valueSize = 64
)

type loadConfig struct {
	Addr     string  `json:"addr"`
	Workers  int     `json:"workers"`
	Txns     int     `json:"txns_per_worker"`
	Keys     int64   `json:"keys"`
	ReadFrac float64 `json:"read_frac"`
	Workload string  `json:"workload,omitempty"` // kv (default), index or xshard
	// Replicas are follower addresses eligible to serve pure-read
	// transactions (client.Options.Replicas).
	Replicas []string `json:"replicas,omitempty"`
	Shards   int      `json:"shards"` // reported by the server
	// MetricsAddr is the server's observability listener, where the sampled
	// traces are fetched from.
	MetricsAddr string `json:"metrics_addr,omitempty"`
	// TraceSample is the fraction of transactions traced end to end
	// (client.Options.TraceSample); with MetricsAddr set, the sampled
	// traces are fetched back and summarized per stage.
	TraceSample float64 `json:"trace_sample,omitempty"`
}

// latencyMs summarizes a latency distribution in milliseconds.
type latencyMs struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// shardReport is the per-shard slice of the run: engine counter deltas plus
// the latency of transactions routed entirely to this shard.
type shardReport struct {
	Shard            int       `json:"shard"`
	Commits          int64     `json:"commits"`
	ReadOnlyCommits  int64     `json:"readonly_commits"`
	CommitFlushes    int64     `json:"wal_flushes"`
	CommitBatches    int64     `json:"multi_tx_batches"`
	CommitMaxBatch   int64     `json:"max_batch"`
	WALPageWrites    int64     `json:"wal_page_writes"`
	FlushesPerCommit float64   `json:"flushes_per_commit"`
	Txns             int64     `json:"single_shard_txns"`
	TxnPerSec        float64   `json:"txn_per_sec"`
	Latency          latencyMs `json:"latency"`
}

// engineAgg is the aggregate engine delta over the run.
//
// FlushesPerCommit and FlushSavedPct are taken over the commits that logged
// something (Commits - ReadOnlyCommits): a reader never needed a flush, so
// counting it would report unlogged readers as group-commit wins.
type engineAgg struct {
	Commits          int64   `json:"commits"`
	ReadOnlyCommits  int64   `json:"readonly_commits"`
	Aborts           int64   `json:"aborts"`
	CommitFlushes    int64   `json:"wal_flushes"`
	CommitBatches    int64   `json:"multi_tx_batches"`
	WALPageWrites    int64   `json:"wal_page_writes"`
	FlushesPerCommit float64 `json:"flushes_per_commit"`
	FlushSavedPct    float64 `json:"group_commit_saved_pct"`
	PoolHits         int64   `json:"pool_hits"`
	PoolMisses       int64   `json:"pool_misses"`
	PoolHitRatio     float64 `json:"pool_hit_ratio"`
	PoolEvictions    int64   `json:"pool_evictions"`
	PoolPartitions   int     `json:"pool_partitions"` // summed across shards
	PoolReadWaits    int64   `json:"pool_read_waits"` // singleflight joins on in-flight reads
	PrefetchIssued   int64   `json:"pool_prefetch_issued"`
	PrefetchCoalesce int64   `json:"pool_prefetch_coalesced"` // device reads saved by batching
	PrefetchWasted   int64   `json:"pool_prefetch_wasted"`
	DataReads        int64   `json:"data_reads"` // host read ops on the data device
}

// result is the full machine-readable run report (-json).
type result struct {
	Config     loadConfig    `json:"config"`
	ElapsedSec float64       `json:"elapsed_sec"`
	Committed  int64         `json:"committed"`
	TxnPerSec  float64       `json:"txn_per_sec"`
	Conflicts  int64         `json:"conflicts"`
	Drained    int64         `json:"drain_rejected"`
	Failures   int64         `json:"failures"`
	Latency    latencyMs     `json:"latency"`
	Engine     engineAgg     `json:"engine"`
	PerShard   []shardReport `json:"per_shard"`
	CrossShard struct {
		Txns    int64     `json:"txns"`
		Latency latencyMs `json:"latency"`
	} `json:"cross_shard"`
	// Index is present for -workload index: secondary-index counter deltas
	// and the AS OF verification outcome.
	Index *indexReport `json:"index,omitempty"`
	// Repl is present when the target server is a replication follower:
	// its per-shard applied-vs-primary-durable position after the run.
	Repl *repl.Stats `json:"repl,omitempty"`
	// Reads breaks routed read transactions down by serving side; present
	// when -replicas was given.
	Reads *readRouting `json:"read_routing,omitempty"`
	// Trace is the per-stage span breakdown fetched from /debug/traces;
	// present when -trace-sample and -metrics-addr are both set.
	Trace *traceBreakdown `json:"trace,omitempty"`
}

// readRouting is the -replicas read breakdown: where BeginRead transactions
// actually ran after the read-your-writes LSN gate.
type readRouting struct {
	PrimaryReads int64   `json:"primary_reads"`
	ReplicaReads int64   `json:"replica_reads"`
	ReplicaFrac  float64 `json:"replica_frac"`
}

// txnSample is one committed transaction's outcome for latency attribution:
// shard >= 0 pins a single-shard transaction, shard == -1 is cross-shard.
type txnSample struct {
	lat   time.Duration
	shard int
}

func run(cfg loadConfig, jsonPath string) error {
	c, err := client.Dial(cfg.Addr, client.Options{PoolSize: cfg.Workers, Replicas: cfg.Replicas, TraceSample: cfg.TraceSample})
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.Addr, err)
	}
	defer c.Close()

	// Preload the keyspace (idempotent across runs: existing keys are
	// updated instead of inserted).
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	preStart := time.Now()
	const batch = 256
	for lo := int64(0); lo < cfg.Keys; lo += batch {
		hi := lo + batch
		if hi > cfg.Keys {
			hi = cfg.Keys
		}
		tx, err := c.Begin()
		if err != nil {
			return fmt.Errorf("preload begin: %w", err)
		}
		for k := lo; k < hi; k++ {
			if err := tx.Insert(k, val); err != nil {
				if uerr := tx.Update(k, val); uerr != nil {
					tx.Abort()
					return fmt.Errorf("preload key %d: %w", k, err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("preload commit: %w", err)
		}
	}
	fmt.Printf("preloaded %d keys in %.2fs\n", cfg.Keys, time.Since(preStart).Seconds())

	before, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	cfg.Shards = before.Router.Shards
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}

	// With -replicas, each worker runs over its own client: the
	// read-your-writes floor is a per-session property, and a shared client
	// would merge every worker's commit point into one global floor that
	// replicas chasing a live write mix could never cover.
	workerC := make([]*client.Client, cfg.Workers)
	for w := range workerC {
		workerC[w] = c
	}
	if len(cfg.Replicas) > 0 {
		for w := range workerC {
			wc, err := client.Dial(cfg.Addr, client.Options{PoolSize: 2, Replicas: cfg.Replicas, TraceSample: cfg.TraceSample})
			if err != nil {
				return fmt.Errorf("dial worker client: %w", err)
			}
			defer wc.Close()
			workerC[w] = wc
		}
	}

	var (
		mu        sync.Mutex
		conflicts int64
		drained   int64
		failures  int64
	)
	samples := make([][]txnSample, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			out := make([]txnSample, 0, cfg.Txns)
			for i := 0; i < cfg.Txns; i++ {
				t0 := time.Now()
				home, err := runTxn(workerC[w], rng, cfg, val)
				switch {
				case err == nil:
					out = append(out, txnSample{lat: time.Since(t0), shard: home})
				case errors.Is(err, txn.ErrSerialization) || errors.Is(err, txn.ErrLockTimeout):
					mu.Lock()
					conflicts++
					mu.Unlock()
				case errors.Is(err, wire.ErrShuttingDown), errors.Is(err, engine.ErrReadOnly):
					// Both are handoff-window outcomes: the primary refused
					// because it drains, or the follower refused because it
					// has not finished promoting yet.
					mu.Lock()
					drained++
					mu.Unlock()
				default:
					mu.Lock()
					failures++
					n := failures
					mu.Unlock()
					if n <= 5 {
						fmt.Fprintf(os.Stderr, "worker %d txn %d: %v\n", w, i, err)
					}
				}
			}
			samples[w] = out
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	res := summarize(cfg, elapsed, samples, before, after)
	if cfg.MetricsAddr != "" && cfg.TraceSample > 0 {
		if bd, err := scrapeTraces(cfg.MetricsAddr, 1000); err != nil {
			fmt.Fprintf(os.Stderr, "trace scrape: %v\n", err)
		} else {
			res.Trace = bd
		}
	}
	res.Conflicts = conflicts
	res.Drained = drained
	res.Failures = failures
	if len(cfg.Replicas) > 0 {
		var p, r int64
		for _, wc := range workerC {
			wp, wr := wc.ReadRouting()
			p, r = p+wp, r+wr
		}
		res.Reads = &readRouting{
			PrimaryReads: p,
			ReplicaReads: r,
			ReplicaFrac:  ratio(r, p+r),
		}
	}
	printResult(res)

	if jsonPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}

// runTxn executes one closed-loop transaction and reports its home shard
// (-1 when its keys spanned shards); client-level retry already absorbs
// overload rejections.
func runTxn(c *client.Client, rng *rand.Rand, cfg loadConfig, val []byte) (int, error) {
	// Draw the op mix up front: a transaction with no writes can run as a
	// routed read-only transaction when replicas are configured. Drawing
	// before Begin keeps the op-level read fraction exactly cfg.ReadFrac.
	var isRead [opsPerTxn]bool
	pureRead := true
	for i := range isRead {
		isRead[i] = rng.Float64() < cfg.ReadFrac
		pureRead = pureRead && isRead[i]
	}
	var tx *client.Tx
	var err error
	if pureRead && len(cfg.Replicas) > 0 {
		tx, err = c.BeginRead()
	} else {
		tx, err = c.Begin()
	}
	if err != nil {
		return -1, err
	}
	home := -2 // no key touched yet
	for i := range isRead {
		key := rng.Int63n(cfg.Keys)
		switch s := shard.Of(key, cfg.Shards); {
		case home == -2:
			home = s
		case home != s:
			home = -1
		}
		if isRead[i] {
			if _, err := tx.Get(key); err != nil {
				tx.Abort()
				return home, err
			}
		} else {
			if err := tx.Update(key, val); err != nil {
				tx.Abort()
				return home, err
			}
		}
	}
	if home == -2 {
		home = -1
	}
	return home, tx.Commit()
}

// summarize folds worker samples and stats deltas into a result.
func summarize(cfg loadConfig, elapsed time.Duration, samples [][]txnSample, before, after server.StatsReply) result {
	res := result{Config: cfg, ElapsedSec: elapsed.Seconds(), Repl: after.Repl}

	var all []time.Duration
	perShard := make([][]time.Duration, cfg.Shards)
	var cross []time.Duration
	for _, ss := range samples {
		for _, s := range ss {
			all = append(all, s.lat)
			if s.shard >= 0 && s.shard < cfg.Shards {
				perShard[s.shard] = append(perShard[s.shard], s.lat)
			} else {
				cross = append(cross, s.lat)
			}
		}
	}
	res.Committed = int64(len(all))
	res.TxnPerSec = float64(len(all)) / elapsed.Seconds()
	res.Latency = summarizeLat(all)
	res.CrossShard.Txns = int64(len(cross))
	res.CrossShard.Latency = summarizeLat(cross)

	d := engineDelta(before, after)
	res.Engine = engineAgg{
		Commits:          d.Commits,
		ReadOnlyCommits:  d.ReadOnlyCommits,
		Aborts:           d.Aborts,
		CommitFlushes:    d.CommitFlushes,
		CommitBatches:    d.CommitBatches,
		WALPageWrites:    d.WALPageWrites,
		FlushesPerCommit: ratio(d.CommitFlushes, d.Commits-d.ReadOnlyCommits),
		FlushSavedPct:    saved(d.Commits-d.ReadOnlyCommits, d.CommitFlushes),
		PoolHits:         d.Pool.Hits,
		PoolMisses:       d.Pool.Misses,
		PoolHitRatio:     d.Pool.HitRatio(),
		PoolEvictions:    d.Pool.Evictions,
		PoolPartitions:   d.PoolPartitions,
		PoolReadWaits:    d.Pool.ReadWaits,
		PrefetchIssued:   d.Pool.PrefetchIssued,
		PrefetchCoalesce: d.Pool.PrefetchCoalesced,
		PrefetchWasted:   d.Pool.PrefetchWasted,
		DataReads:        d.Data.Reads,
	}

	for i := 0; i < cfg.Shards; i++ {
		var b, a engine.Stats
		if i < len(before.Shards) {
			b = before.Shards[i]
		}
		if i < len(after.Shards) {
			a = after.Shards[i]
		}
		sd := a.Sub(b)
		res.PerShard = append(res.PerShard, shardReport{
			Shard:            i,
			Commits:          sd.Commits,
			ReadOnlyCommits:  sd.ReadOnlyCommits,
			CommitFlushes:    sd.CommitFlushes,
			CommitBatches:    sd.CommitBatches,
			CommitMaxBatch:   sd.CommitMaxBatch, // high-water mark: a gauge, so the later value
			WALPageWrites:    sd.WALPageWrites,
			FlushesPerCommit: ratio(sd.CommitFlushes, sd.Commits-sd.ReadOnlyCommits),
			Txns:             int64(len(perShard[i])),
			TxnPerSec:        float64(len(perShard[i])) / elapsed.Seconds(),
			Latency:          summarizeLat(perShard[i]),
		})
	}
	return res
}

func printResult(res result) {
	cfg := res.Config
	fmt.Printf("\n%d workers x %d txns (%d ops/txn, %.0f%% reads, %d keys, %dB values, %d shard(s))\n",
		cfg.Workers, cfg.Txns, opsPerTxn, cfg.ReadFrac*100, cfg.Keys, valueSize, cfg.Shards)
	fmt.Printf("elapsed            %.2fs\n", res.ElapsedSec)
	fmt.Printf("committed          %d (%.0f txn/s)\n", res.Committed, res.TxnPerSec)
	fmt.Printf("conflicts          %d\n", res.Conflicts)
	if res.Drained > 0 {
		fmt.Printf("drain-rejected     %d\n", res.Drained)
	}
	if res.Failures > 0 {
		fmt.Printf("failures           %d\n", res.Failures)
	}
	fmt.Printf("latency p50/p95/p99/max  %.2f / %.2f / %.2f / %.2f ms\n",
		res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max)

	fmt.Printf("\nengine deltas over the run:\n")
	fmt.Printf("  commits          %d (%d read-only: no log record, no flush)\n", res.Engine.Commits, res.Engine.ReadOnlyCommits)
	fmt.Printf("  aborts           %d\n", res.Engine.Aborts)
	fmt.Printf("  commit flushes   %d (group commit saved %.1f%% of the logged commits' flushes)\n",
		res.Engine.CommitFlushes, res.Engine.FlushSavedPct)
	fmt.Printf("  multi-tx batches %d\n", res.Engine.CommitBatches)
	fmt.Printf("  WAL page writes  %d\n", res.Engine.WALPageWrites)
	fmt.Printf("  pool hit ratio   %.4f (%d hits / %d misses, %d evictions, %d stripe(s))\n",
		res.Engine.PoolHitRatio, res.Engine.PoolHits, res.Engine.PoolMisses,
		res.Engine.PoolEvictions, res.Engine.PoolPartitions)
	if res.Engine.PoolReadWaits > 0 || res.Engine.PrefetchIssued > 0 {
		fmt.Printf("  pool read path   %d singleflight waits, prefetch %d issued / %d coalesced / %d wasted, %d device reads\n",
			res.Engine.PoolReadWaits, res.Engine.PrefetchIssued, res.Engine.PrefetchCoalesce,
			res.Engine.PrefetchWasted, res.Engine.DataReads)
	}

	if cfg.Shards > 1 {
		fmt.Printf("\nper-shard breakdown (single-shard txns attributed to their shard):\n")
		fmt.Printf("  %-5s %10s %10s %10s %8s %9s %9s %9s\n",
			"shard", "txns", "txn/s", "commits", "flushes", "fl/commit", "maxbatch", "p99 ms")
		for _, s := range res.PerShard {
			fmt.Printf("  %-5d %10d %10.0f %10d %8d %9.3f %9d %9.2f\n",
				s.Shard, s.Txns, s.TxnPerSec, s.Commits, s.CommitFlushes,
				s.FlushesPerCommit, s.CommitMaxBatch, s.Latency.P99)
		}
		fmt.Printf("  cross-shard txns %d (p50 %.2f ms, p99 %.2f ms)\n",
			res.CrossShard.Txns, res.CrossShard.Latency.P50, res.CrossShard.Latency.P99)
	}

	if res.Trace != nil {
		printTraceBreakdown(res.Trace)
	}

	if res.Reads != nil {
		fmt.Printf("\nread routing (-replicas %s):\n", strings.Join(cfg.Replicas, ","))
		fmt.Printf("  replica reads    %d (%.1f%% of routed read txns)\n",
			res.Reads.ReplicaReads, 100*res.Reads.ReplicaFrac)
		fmt.Printf("  primary reads    %d\n", res.Reads.PrimaryReads)
	}

	if res.Repl != nil {
		fmt.Printf("\nreplication (follower of %s, promoted=%v):\n", res.Repl.Primary, res.Repl.Promoted)
		for i, s := range res.Repl.Shards {
			fmt.Printf("  shard %d: applied LSN %d / primary durable %d (lag %d bytes)\n",
				i, s.AppliedLSN, s.PrimaryDurableLSN, s.LagBytes)
		}
	}
}

func summarizeLat(lats []time.Duration) latencyMs {
	if len(lats) == 0 {
		return latencyMs{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return latencyMs{
		P50: ms(pct(sorted, 50)),
		P95: ms(pct(sorted, 95)),
		P99: ms(pct(sorted, 99)),
		Max: ms(sorted[len(sorted)-1]),
	}
}

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func saved(commits, flushes int64) float64 {
	if commits <= 0 {
		return 0
	}
	return 100 * float64(commits-flushes) / float64(commits)
}

// shardAgg returns the aggregate engine view of a stats reply, tolerating
// replies that predate the per-shard field.
func shardAgg(r server.StatsReply) engine.Stats {
	if len(r.Shards) > 0 {
		return shard.Aggregate(r.Shards)
	}
	return r.Engine
}

// engineDelta is the engine-wide change between two STATS replies.
func engineDelta(before, after server.StatsReply) engine.Stats {
	return shardAgg(after).Sub(shardAgg(before))
}
