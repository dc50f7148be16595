// Command siasload is a closed-loop load generator for siasserver: N
// workers each repeat one workload transaction over a pooled client, then
// the tool prints throughput, transaction latency percentiles and the engine
// counter deltas — overall and per shard, so group-commit effectiveness and
// WAL flush sharing are visible for every partition. Transactions whose keys
// all hash to one shard are attributed to it; the rest are reported as
// cross-shard.
//
// Usage:
//
//	siasload [-addr :4544] [-workers 8] [-txns 2000] [-keys 1024]
//	         [-read-frac 0.5] [-replicas ADDR,...] [-json FILE]
//	         [-metrics-addr HOST:PORT] [-trace-sample F]
//	         [-workload kv|index|xshard] [-state-out FILE] [-verify-state FILE]
//	         [-groups N] [-expect-crash] [-xshard-verify] [-stats-only]
//
// Every workload runs through one loop, drive: a preload, the workers'
// transactions, STATS before and after, and the workload's hooks around the
// run. Every kv and index transaction runs 2 data ops; kv writes carry
// 64-byte values. With -json, a machine-readable report (the same numbers as
// the text report) is written to FILE; its engine counters are the
// engine.Stats delta over the run under the STATS reply's own names.
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
	"sync/atomic"
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
	wlName := flag.String("workload", "kv", "workload: kv (key/value ops), index (typed table with secondary-index lookups and AS OF verification) or xshard (cross-shard group rewrites)")
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
		Workload: *wlName, TraceSample: *traceSample,
	}
	if *replicas != "" {
		for _, a := range strings.Split(*replicas, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Replicas = append(cfg.Replicas, a)
			}
		}
	}
	var mk func(*client.Client, *loadConfig) (*workload, error)
	switch *wlName {
	case "kv":
		mk = kvWorkload
	case "index":
		mk = func(c *client.Client, cfg *loadConfig) (*workload, error) { return indexWorkload(c, cfg, *stateOut) }
	case "xshard":
		cfg.Groups = *groups
		mk = func(c *client.Client, cfg *loadConfig) (*workload, error) { return xshardWorkload(cfg, *expectCrash) }
	default:
		log.Fatalf("unknown -workload %q (want kv, index or xshard)", *wlName)
	}
	if err := drive(cfg, *jsonPath, mk); err != nil {
		log.Fatal(err)
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
	if jsonPath != "" {
		return writeJSON(jsonPath, st)
	}
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(blob, '\n'))
	return err
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
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
	Groups   int     `json:"groups,omitempty"`   // xshard key groups
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

// A workload is what drive runs: the rows it loads first, the transaction
// every worker repeats, and hooks around the measured run.
type workload struct {
	desc string // the text report's workload line
	// The preload upserts items 0..items-1, batch of them per transaction:
	// put writes item i, inserting it, or updating it when update is set.
	// get reads item i; the preload probes item 0 with it to tell a server
	// loaded by an earlier run, whose items it updates, from an empty one.
	items, batch int
	put          func(tx *client.Tx, i int, update bool) error
	get          func(tx *client.Tx, i int) error
	// txn runs worker w's i-th transaction and returns its home shard, -1
	// when it spanned shards.
	txn func(c *client.Client, rng *rand.Rand, w, i int) (home int, err error)
	// With stopOnFailure the first failure ends every worker's loop; with
	// expectCrash that failure is the server dying, the run's expected end.
	stopOnFailure, expectCrash bool
	// before runs after the preload, before the run is measured; after runs
	// once the report is summarized, may add to it, and its error is the
	// run's. Either may be nil.
	before func(c *client.Client) error
	after  func(c *client.Client, res *report) error
}

// latencyMs summarizes a latency distribution in milliseconds.
type latencyMs struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// homeLatency is the client-side view of the committed transactions that
// share one home.
type homeLatency struct {
	Txns    int64     `json:"txns"`
	Latency latencyMs `json:"latency"`
}

// report is the run's result: printed, and with -json written as JSON.
type report struct {
	Config     loadConfig `json:"config"`
	PreloadSec float64    `json:"preload_sec"`
	ElapsedSec float64    `json:"elapsed_sec"`
	// Every transaction a worker ran is exactly one of Committed,
	// Conflicts, Drained and Failures; InDoubt counts the failures whose
	// commit outcome is unknown (client.ErrInDoubt).
	Committed int64     `json:"committed"`
	TxnPerSec float64   `json:"txn_per_sec"`
	Conflicts int64     `json:"conflicts"`
	Drained   int64     `json:"drain_rejected"`
	Failures  int64     `json:"failures"`
	InDoubt   int64     `json:"in_doubt"`
	Crashed   bool      `json:"crashed"` // -expect-crash saw the server die
	Latency   latencyMs `json:"latency"`
	// ByHome holds the committed single-shard transactions by shard,
	// CrossShard the rest.
	ByHome     []homeLatency `json:"by_home"`
	CrossShard homeLatency   `json:"cross_shard"`
	// Engine and Shards are the engine.Stats delta over the run, aggregated
	// and per shard, as the STATS reply's engine and shards carry them.
	// After a crash they stay empty: there is no later STATS to subtract.
	Engine engine.Stats   `json:"engine"`
	Shards []engine.Stats `json:"shards,omitempty"`
	// Index is present for -workload index: its lookups and the AS OF
	// verification outcome.
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

// drive runs one workload end to end: dial, build the workload, preload,
// measure the workers' closed loop between two STATS replies, report.
func drive(cfg loadConfig, jsonPath string, mk func(*client.Client, *loadConfig) (*workload, error)) error {
	c, err := client.Dial(cfg.Addr, client.Options{PoolSize: cfg.Workers, Replicas: cfg.Replicas, TraceSample: cfg.TraceSample})
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.Addr, err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	cfg.Shards = max(st.Router.Shards, 1)
	wl, err := mk(c, &cfg)
	if err != nil {
		return err
	}

	preStart := time.Now()
	if err := preload(c, wl); err != nil {
		return err
	}
	preloadSec := time.Since(preStart).Seconds()
	fmt.Printf("preloaded %d rows in %.2fs\n", wl.items, preloadSec)
	if wl.before != nil {
		if err := wl.before(c); err != nil {
			return err
		}
	}

	// With -replicas, each worker runs over its own client: the
	// read-your-writes floor is a per-session property, and a shared client
	// would merge every worker's commit point into one global floor that
	// replicas chasing a live write mix could never cover.
	workerC := make([]*client.Client, cfg.Workers)
	for w := range workerC {
		workerC[w] = c
		if len(cfg.Replicas) > 0 {
			wc, err := client.Dial(cfg.Addr, client.Options{PoolSize: 2, Replicas: cfg.Replicas, TraceSample: cfg.TraceSample})
			if err != nil {
				return fmt.Errorf("dial worker client: %w", err)
			}
			defer wc.Close()
			workerC[w] = wc
		}
	}

	before, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var conflicts, drained, failures, inDoubt atomic.Int64
	var stop atomic.Bool
	samples := make([][]txnSample, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range samples {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			out := make([]txnSample, 0, cfg.Txns)
			for i := 0; i < cfg.Txns && !stop.Load(); i++ {
				t0 := time.Now()
				home, err := wl.txn(workerC[w], rng, w, i)
				switch {
				case err == nil:
					out = append(out, txnSample{lat: time.Since(t0), shard: home})
				case errors.Is(err, txn.ErrSerialization), errors.Is(err, txn.ErrLockTimeout):
					conflicts.Add(1)
				case errors.Is(err, wire.ErrShuttingDown), errors.Is(err, engine.ErrReadOnly):
					// Both are handoff-window outcomes: the primary refused
					// because it drains, or the follower refused because it
					// has not finished promoting yet.
					drained.Add(1)
				default:
					if errors.Is(err, client.ErrInDoubt) {
						inDoubt.Add(1)
					}
					if n := failures.Add(1); n <= 5 && !wl.expectCrash {
						fmt.Fprintf(os.Stderr, "worker %d txn %d: %v\n", w, i, err)
					}
					if wl.stopOnFailure {
						stop.Store(true)
					}
				}
			}
			samples[w] = out
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := report{
		PreloadSec: preloadSec,
		Conflicts:  conflicts.Load(), Drained: drained.Load(),
		Failures: failures.Load(), InDoubt: inDoubt.Load(),
		Crashed: wl.expectCrash && failures.Load() > 0,
	}
	summarize(&res, cfg, elapsed, samples)
	if !res.Crashed { // a crashed server answers nothing more
		after, err := c.Stats()
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		res.Engine, res.Shards = statsDelta(before, after)
		res.Repl = after.Repl
		if cfg.MetricsAddr != "" && cfg.TraceSample > 0 {
			if bd, err := scrapeTraces(cfg.MetricsAddr, 1000); err != nil {
				fmt.Fprintf(os.Stderr, "trace scrape: %v\n", err)
			} else {
				res.Trace = bd
			}
		}
	}
	if len(cfg.Replicas) > 0 {
		var p, r int64
		for _, wc := range workerC {
			wp, wr := wc.ReadRouting()
			p, r = p+wp, r+wr
		}
		res.Reads = &readRouting{PrimaryReads: p, ReplicaReads: r, ReplicaFrac: ratio(r, p+r)}
	}
	var check error
	if wl.after != nil {
		check = wl.after(c, &res)
	}
	fmt.Printf("\n%s: %d workers x %d txns, %d shard(s)\n", wl.desc, cfg.Workers, cfg.Txns, cfg.Shards)
	printReport(res)
	if jsonPath != "" {
		if err := writeJSON(jsonPath, res); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return check
}

// preload upserts the workload's items in batches, so a rerun against a
// loaded server reuses its rows: an insert is never refused, even of a key
// that exists, so whether to insert is decided up front by probing item 0.
func preload(c *client.Client, wl *workload) error {
	loaded, err := probe(c, wl)
	if err != nil {
		return err
	}
	for lo := 0; lo < wl.items; lo += wl.batch {
		tx, err := c.Begin()
		if err != nil {
			return fmt.Errorf("preload begin: %w", err)
		}
		for i := lo; i < min(lo+wl.batch, wl.items); i++ {
			err := wl.put(tx, i, loaded)
			if loaded && errors.Is(err, engine.ErrNotFound) {
				err = wl.put(tx, i, false)
			}
			if err != nil {
				tx.Abort()
				return fmt.Errorf("preload item %d: %w", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("preload commit: %w", err)
		}
	}
	return nil
}

// probe reports whether the server holds the workload's item 0 already.
func probe(c *client.Client, wl *workload) (bool, error) {
	tx, err := c.Begin()
	if err != nil {
		return false, fmt.Errorf("preload probe: %w", err)
	}
	err = wl.get(tx, 0)
	tx.Abort()
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, engine.ErrNotFound):
		return false, nil
	}
	return false, fmt.Errorf("preload probe: %w", err)
}

// summarize folds the worker samples into res.
func summarize(res *report, cfg loadConfig, elapsed time.Duration, samples [][]txnSample) {
	res.Config, res.ElapsedSec = cfg, elapsed.Seconds()
	var all, cross []time.Duration
	perShard := make([][]time.Duration, cfg.Shards)
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
	res.CrossShard = homeLatency{Txns: int64(len(cross)), Latency: summarizeLat(cross)}
	res.ByHome = make([]homeLatency, cfg.Shards)
	for i, lats := range perShard {
		res.ByHome[i] = homeLatency{Txns: int64(len(lats)), Latency: summarizeLat(lats)}
	}
}

// statsDelta is the engine change between two STATS replies of one server,
// aggregated and per shard.
func statsDelta(before, after server.StatsReply) (engine.Stats, []engine.Stats) {
	shards := make([]engine.Stats, len(after.Shards))
	for i := range shards {
		shards[i] = after.Shards[i].Sub(before.Shards[i])
	}
	return after.Engine.Sub(before.Engine), shards
}

// printReport prints res as text. Flushes per commit and the group-commit
// saving are taken over the commits that logged something (Commits -
// ReadOnlyCommits): a reader never needed a flush, so counting it would
// report unlogged readers as group-commit wins.
func printReport(res report) {
	fmt.Printf("elapsed            %.2fs\n", res.ElapsedSec)
	fmt.Printf("committed          %d (%.0f txn/s)\n", res.Committed, res.TxnPerSec)
	fmt.Printf("conflicts          %d\n", res.Conflicts)
	if res.Drained > 0 {
		fmt.Printf("drain-rejected     %d\n", res.Drained)
	}
	if res.Failures > 0 {
		fmt.Printf("failures           %d (%d in doubt)\n", res.Failures, res.InDoubt)
	}
	if res.Crashed {
		fmt.Printf("crashed            the server died mid-run, as -expect-crash expects\n")
	}
	fmt.Printf("latency p50/p95/p99/max  %.2f / %.2f / %.2f / %.2f ms\n",
		res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max)

	if !res.Crashed {
		e := res.Engine
		fmt.Printf("\nengine deltas over the run:\n")
		fmt.Printf("  commits          %d (%d read-only: no log record, no flush)\n", e.Commits, e.ReadOnlyCommits)
		fmt.Printf("  aborts           %d\n", e.Aborts)
		fmt.Printf("  commit flushes   %d (group commit saved %.1f%% of the logged commits' flushes)\n",
			e.CommitFlushes, saved(e.Commits-e.ReadOnlyCommits, e.CommitFlushes))
		fmt.Printf("  multi-tx batches %d\n", e.CommitBatches)
		fmt.Printf("  WAL page writes  %d\n", e.WALPageWrites)
		fmt.Printf("  pool hit ratio   %.4f (%d hits / %d misses, %d evictions, %d stripe(s))\n",
			e.PoolHitRatio, e.Pool.Hits, e.Pool.Misses, e.Pool.Evictions, e.PoolPartitions)
		if e.Pool.ReadWaits > 0 || e.Pool.PrefetchIssued > 0 {
			fmt.Printf("  pool read path   %d singleflight waits, prefetch %d issued / %d coalesced / %d wasted, %d device reads\n",
				e.Pool.ReadWaits, e.Pool.PrefetchIssued, e.Pool.PrefetchCoalesced, e.Pool.PrefetchWasted, e.Data.Reads)
		}
	}

	if len(res.Shards) > 1 {
		fmt.Printf("\nper-shard breakdown (single-shard txns attributed to their shard):\n")
		fmt.Printf("  %-5s %10s %10s %10s %8s %9s %9s %9s\n",
			"shard", "txns", "txn/s", "commits", "flushes", "fl/commit", "maxbatch", "p99 ms")
		for i, s := range res.Shards {
			h := res.ByHome[i]
			fmt.Printf("  %-5d %10d %10.0f %10d %8d %9.3f %9d %9.2f\n",
				i, h.Txns, float64(h.Txns)/res.ElapsedSec, s.Commits, s.CommitFlushes,
				ratio(s.CommitFlushes, s.Commits-s.ReadOnlyCommits), s.CommitMaxBatch, h.Latency.P99)
		}
		fmt.Printf("  cross-shard txns %d (p50 %.2f ms, p99 %.2f ms)\n",
			res.CrossShard.Txns, res.CrossShard.Latency.P50, res.CrossShard.Latency.P99)
	}

	if res.Index != nil {
		ix := res.Index
		fmt.Printf("\nindex workload (%s/%s, %d groups):\n", ix.Table, ix.Index, ix.Groups)
		fmt.Printf("  index lookups    %d (%.0f/s, %d rows returned)\n", res.Engine.IndexLookups, ix.LookupsPerSec, ix.RowsReturned)
		fmt.Printf("  index inserts    %d\n", res.Engine.IndexInserts)
		fmt.Printf("  AS OF verify     %d groups, match=%v\n", ix.AsOfGroupsChecked, ix.AsOfVerified)
	}

	if res.Trace != nil {
		printTraceBreakdown(res.Trace)
	}

	if res.Reads != nil {
		fmt.Printf("\nread routing (-replicas %s):\n", strings.Join(res.Config.Replicas, ","))
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

// kvWorkload is the default mix on the kv table: opsPerTxn point reads or
// updates of uniformly drawn keys.
func kvWorkload(_ *client.Client, cfg *loadConfig) (*workload, error) {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	run := *cfg
	return &workload{
		desc: fmt.Sprintf("kv (%d ops/txn, %.0f%% reads, %d keys, %dB values)",
			opsPerTxn, cfg.ReadFrac*100, cfg.Keys, valueSize),
		items: int(cfg.Keys), batch: 256,
		put: func(tx *client.Tx, i int, update bool) error {
			if update {
				return tx.Update(int64(i), val)
			}
			return tx.Insert(int64(i), val)
		},
		get: func(tx *client.Tx, i int) error {
			_, err := tx.Get(int64(i))
			return err
		},
		txn: func(c *client.Client, rng *rand.Rand, _, _ int) (int, error) {
			return kvTxn(c, rng, run, val)
		},
	}, nil
}

// kvTxn executes one kv transaction and reports its home shard (-1 when its
// keys spanned shards); client-level retry already absorbs overload
// rejections.
func kvTxn(c *client.Client, rng *rand.Rand, cfg loadConfig, val []byte) (int, error) {
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
	home := noHome
	for i := range isRead {
		key := rng.Int63n(cfg.Keys)
		home = joinHome(home, shard.Of(key, cfg.Shards))
		if isRead[i] {
			_, err = tx.Get(key)
		} else {
			err = tx.Update(key, val)
		}
		if err != nil {
			tx.Abort()
			return home, err
		}
	}
	return max(home, -1), tx.Commit()
}

// noHome is the home of a transaction that has touched no key yet.
const noHome = -2

// joinHome is the home of a transaction at home h that touches shard s.
func joinHome(h, s int) int {
	if h == noHome || h == s {
		return s
	}
	return -1
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
