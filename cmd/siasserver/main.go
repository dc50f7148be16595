// Command siasserver serves a SIAS deployment over TCP with the
// internal/wire protocol: per-connection sessions, request pipelining,
// group commit, bounded-admission overload handling and graceful drain on
// SIGTERM/SIGINT.
//
// Usage:
//
//	siasserver [-addr :4544] [-shards N] [-pool FRAMES] [-data DIR]
//	           [-data-pages N] [-wal-pages N] [-wal-sync=false]
//	           [-follow ADDR] [-announce ADDR] [-metrics-addr :9544]
//	           [-slow-op-ms MS] [-trace-sample F]
//
// Every shard is a SIAS engine with the checkpoint (t2) append-flush policy;
// the SI baseline the paper compares against runs in the simulator only
// (cmd/siasbench).
//
// With -metrics-addr, a side HTTP listener serves /metrics (Prometheus text
// exposition of every layer: per-op latency histograms, WAL append/fsync
// timings, buffer pool hit ratios, device write amplification, replication
// lag), /healthz (readiness: 200 while serving and not draining), /debug/pprof
// (CPU/heap/goroutine profiles), /debug/slowops and /debug/traces. -slow-op-ms
// additionally logs every request slower than MS milliseconds with its op,
// shard, transaction handle and trace id, keeping the most recent 128 records
// at /debug/slowops. Whenever observability is on, a distributed
// tracer records spans for client requests carrying TRACE envelopes, for
// over-threshold slow ops (always force-kept), and — with -trace-sample F —
// for a head-sampled fraction F of bare data ops; /debug/traces serves the
// recent traces grouped and filterable by trace id, op and duration.
//
// With -follow, the server runs as a replication follower: it subscribes to
// the primary at ADDR (which must run the same shard count), mirrors its
// per-shard WALs byte for byte, serves read-only snapshot reads at the
// applied horizon, and rejects writes with READ_ONLY until promotion — by an
// operator PROMOTE frame or automatically when the primary drains and ends
// the stream. -announce is the follower address the primary hands to
// clients during a drain so they fail over (defaults to a loopback form of
// -addr).
//
// With -shards N > 1 the primary-key space is hash-partitioned across N
// independent engine instances, each with its own WAL writer (whose flush is
// the group commit), VIDmap, buffer pool and devices; -pool, -data-pages and
// -wal-pages are totals divided evenly across the shards so resource use
// stays constant as the shard count varies. With -data, each shard's heap
// and WAL live in files under DIR/shard-<i> and a restart recovers the
// committed state through per-shard WAL replay, run in parallel; without
// it the store is in-memory and vanishes with the process. The server
// bootstraps with one key/value table ("kv": int64 key, bytes value);
// clients create further tables and secondary indexes over the wire, and
// that DDL is WAL-logged so it recovers and replicates like row data.
// Time travel is bounded: AS OF snapshot tokens stay fully resolvable until
// the transaction horizon passes them by 65,536 ids (asofRetention).
// Admission control refuses requests beyond 64 executing at once (COMMIT and
// ABORT are exempt), and a SIGTERM or SIGINT drains: open transactions get 5
// seconds to finish before they are aborted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/repl"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/tuple"
)

func main() {
	addr := flag.String("addr", ":4544", "TCP listen address")
	shards := flag.Int("shards", 1, "hash-partitioned engine shards")
	pool := flag.Int("pool", 4096, "buffer pool frames (total across shards)")
	dataDir := flag.String("data", "", "data directory for file-backed devices (empty = in-memory)")
	dataPages := flag.Int64("data-pages", 1<<16, "data device size in pages (total across shards)")
	walPages := flag.Int64("wal-pages", 1<<15, "WAL device size in pages (total across shards)")
	walSync := flag.Bool("wal-sync", true, "fsync the WAL device on every flush (file-backed only)")
	follow := flag.String("follow", "", "run as a replication follower of the primary at this address")
	announce := flag.String("announce", "", "follower address announced to the primary for client failover (default: loopback form of -addr)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics, /healthz and /debug/pprof (empty = disabled)")
	slowOpMs := flag.Int("slow-op-ms", 0, "log requests slower than this many milliseconds (0 = disabled)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of bare data ops traced server-side; traced client requests (TRACE envelopes) are always recorded. Needs -metrics-addr or -slow-op-ms")
	flag.Parse()

	log.SetFlags(log.Ltime | log.Lmicroseconds)
	cfg := serverConfig{
		addr: *addr, shards: *shards, pool: *pool,
		dataDir: *dataDir, dataPages: *dataPages, walPages: *walPages, walSync: *walSync,
		follow: *follow, announce: *announce,
		metricsAddr: *metricsAddr, slowOpMs: *slowOpMs, traceSample: *traceSample,
	}
	if cfg.follow != "" && cfg.announce == "" {
		cfg.announce = cfg.addr
		if len(cfg.announce) > 0 && cfg.announce[0] == ':' {
			cfg.announce = "127.0.0.1" + cfg.announce
		}
	}
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

type serverConfig struct {
	addr        string
	shards      int
	pool        int
	dataDir     string
	dataPages   int64
	walPages    int64
	walSync     bool
	follow      string  // primary address; non-empty = follower mode
	announce    string  // follower address handed to clients on drain
	metricsAddr string  // HTTP side listener; empty = observability off
	slowOpMs    int     // slow-op log threshold; 0 = disabled
	traceSample float64 // server-side head-sampling rate for bare data ops
}

// scanReadahead is every shard's scan readahead window in rows: table scans
// prefetch the entrypoint pages of that many upcoming VIDs.
const scanReadahead = 32

// asofRetention is every shard's engine.Options.GCRetention: superseded
// versions written by the most recent 65,536 transactions are kept, so AS OF
// snapshot tokens inside that window stay resolvable.
const asofRetention = 1 << 16

// version is stamped by the build via -ldflags "-X main.version=...".
var version = "dev"

// openedShard is one shard after openShard: engine open and the kv table
// bootstrapped, but not yet recovered. Recovery runs from run() once every
// shard is open, so in-doubt cross-shard (2PC) transactions can be resolved
// against the sibling shards' decision logs.
type openedShard struct {
	db      *engine.DB
	tab     *engine.Table
	recover bool
	closers []func() error
}

// openShard assembles one engine shard up to (not including) WAL replay.
// Device sizes and pool frames are per-shard shares of the configured
// totals, so varying -shards compares layouts at constant resource budgets.
func openShard(cfg serverConfig, i int) (openedShard, error) {
	opts := engine.Options{
		Kind:          engine.KindSIAS,
		Policy:        engine.PolicyT2,
		PoolFrames:    max(cfg.pool/cfg.shards, 64),
		ScanReadahead: scanReadahead,
		GCRetention:   asofRetention,
	}
	dataPages := max(cfg.dataPages/int64(cfg.shards), 1<<10)
	walPages := max(cfg.walPages/int64(cfg.shards), 1<<9)

	var closers []func() error
	if cfg.dataDir != "" {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return openedShard{}, err
		}
		walPath := filepath.Join(dir, "wal.img")
		// A pre-existing WAL is a log to replay and then continue at the
		// exact end of its intact records — on a follower too, so its
		// mirrored log stays identical to the primary's.
		if _, err := os.Stat(walPath); err == nil {
			opts.Recover = true
		}
		data, err := device.OpenFile(filepath.Join(dir, "data.img"), page.Size, dataPages)
		if err != nil {
			return openedShard{}, err
		}
		walDev, err := device.OpenFile(walPath, page.Size, walPages)
		if err != nil {
			data.Close()
			return openedShard{}, err
		}
		// Commit acknowledgements must mean durable; group commit keeps
		// the per-transaction cost of this down to a share of one fsync.
		walDev.SetSyncOnWrite(cfg.walSync)
		closers = append(closers, walDev.Close, data.Close)
		opts.DataDevice, opts.WALDevice = data, walDev
	} else {
		opts.DataDevice = device.NewMem(page.Size, dataPages)
		opts.WALDevice = device.NewMem(page.Size, walPages)
	}

	db, err := engine.Open(opts)
	if err != nil {
		return openedShard{closers: closers}, err
	}
	if cfg.follow != "" {
		// Replica mode must be on before the table exists: its extents come
		// from the unlogged scratch region, keeping the mirrored log clean.
		db.SetReplica(true)
	}
	tab, _, err := db.CreateTable(0, "kv", tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.TypeInt64},
		tuple.Column{Name: "v", Type: tuple.TypeBytes},
	), "k")
	if err != nil {
		return openedShard{closers: closers}, err
	}
	return openedShard{db: db, tab: tab, recover: opts.Recover, closers: closers}, nil
}

// recoverShards replays every pre-existing WAL in parallel. Before replay
// it collects each shard's pre-scanned coordinator decisions and installs a
// cross-shard resolver on every primary shard, so prepared-but-undecided
// 2PC participants are resolved from the coordinator shard's decision log
// (presumed abort when no decision exists anywhere). Followers skip the
// resolver: their mirrored logs must stay byte-identical to the primary's,
// and the replication stream carries the outcomes.
func recoverShards(cfg serverConfig, opened []openedShard) error {
	any := false
	for _, o := range opened {
		any = any || o.recover
	}
	if !any {
		return nil
	}
	if cfg.follow == "" {
		decs := make([]map[uint64]bool, len(opened))
		for i, o := range opened {
			decs[i] = o.db.Decisions()
		}
		for _, o := range opened {
			o.db.SetInDoubtResolver(func(gid uint64, coord uint32) (bool, bool) {
				if int(coord) >= len(decs) {
					return false, false
				}
				commit, known := decs[coord][gid]
				return commit, known
			})
		}
	}
	errs := make([]error, len(opened))
	var wg sync.WaitGroup
	for i, o := range opened {
		if !o.recover {
			continue
		}
		wg.Add(1)
		go func(i int, o openedShard) {
			defer wg.Done()
			start := time.Now()
			if _, err := o.db.Recover(0); err != nil {
				errs[i] = fmt.Errorf("shard %d recover: %w", i, err)
				return
			}
			log.Printf("siasserver: shard %d recovered in %.3fs", i, time.Since(start).Seconds())
			if cfg.follow != "" {
				// Recovery fast-forwarded the id allocator; re-seed the
				// replica read horizon to cover the replayed history.
				o.db.SetReplica(true)
			}
		}(i, o)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// validate rejects a shard count below one, and a flag that would be
// silently ignored because the flag it depends on is unset.
func validate(cfg serverConfig) error {
	if cfg.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", cfg.shards)
	}
	if cfg.traceSample != 0 && cfg.metricsAddr == "" && cfg.slowOpMs <= 0 {
		return errors.New("-trace-sample needs -metrics-addr or -slow-op-ms: without either there is no tracer")
	}
	if cfg.announce != "" && cfg.follow == "" {
		return errors.New("-announce needs -follow: only a follower announces itself")
	}
	return nil
}

func run(cfg serverConfig) error {
	if err := validate(cfg); err != nil {
		return err
	}

	// Open all shards in parallel, then replay pre-existing WALs in a second
	// parallel phase: recovery needs every shard open first so in-doubt 2PC
	// participants can consult the coordinator shard's decision log.
	opened := make([]openedShard, cfg.shards)
	errs := make([]error, cfg.shards)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opened[i], errs[i] = openShard(cfg, i)
		}(i)
	}
	wg.Wait()
	var closers []func() error
	for _, o := range opened {
		closers = append(closers, o.closers...)
	}
	for _, err := range errs {
		if err != nil {
			closeAll(closers)
			return err
		}
	}
	if err := recoverShards(cfg, opened); err != nil {
		closeAll(closers)
		return err
	}
	shards := make([]shard.Shard, cfg.shards)
	for i, o := range opened {
		shards[i] = shard.Shard{Facade: engine.NewFacade(o.db), Table: o.tab}
	}
	if cfg.dataDir != "" {
		log.Printf("siasserver: %d shard(s) opened in %.3fs under %s", cfg.shards, time.Since(start).Seconds(), cfg.dataDir)
	}

	router, err := shard.NewRouter(shards)
	if err != nil {
		closeAll(closers)
		return err
	}
	// Observability: one registry wires every layer (server, engine, WAL,
	// pool, devices, replication); a side HTTP listener exposes it so the
	// wire port stays pure protocol. The slow-op log works even without the
	// listener — it logs through the standard logger either way.
	var reg *obs.Registry
	var slow *obs.SlowOpLog
	var tracer *obs.Tracer
	if cfg.metricsAddr != "" || cfg.slowOpMs > 0 {
		reg = obs.NewRegistry()
		slow = obs.NewSlowOpLog(time.Duration(cfg.slowOpMs)*time.Millisecond, log.Printf)
		// The tracer exists whenever observability does: client-carried TRACE
		// envelopes and slow-op force-keeps record even with -trace-sample 0.
		tracer = obs.NewTracer(cfg.traceSample)
		serveStart := time.Now()
		reg.CollectGauge("sias_build_info",
			"Build metadata; value is always 1.", func(emit func(obs.Labels, float64)) {
				emit(obs.Labels{"version": version, "goversion": runtime.Version()}, 1)
			})
		reg.CollectGauge("sias_server_uptime_seconds",
			"Seconds since this process started serving.", func(emit func(obs.Labels, float64)) {
				emit(nil, time.Since(serveStart).Seconds())
			})
	}
	var follower *repl.Follower
	if cfg.follow != "" {
		facades := make([]*engine.Facade, len(shards))
		for i := range shards {
			facades[i] = shards[i].Facade
		}
		follower, err = repl.NewFollower(repl.Config{
			PrimaryAddr: cfg.follow,
			Announce:    cfg.announce,
			Shards:      facades,
			Tracer:      tracer,
		})
		if err != nil {
			closeAll(closers)
			return err
		}
	}
	srv, err := server.New(server.Config{
		Router:  router,
		Replica: follower,
		Obs:     reg,
		SlowOps: slow,
		Tracer:  tracer,
	})
	if err != nil {
		closeAll(closers)
		return err
	}
	if cfg.metricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			closeAll(closers)
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer mln.Close()
		go func() {
			log.Printf("siasserver: metrics on http://%s/metrics (healthz, debug/pprof, debug/slowops, debug/traces)", mln.Addr())
			msrv := &http.Server{Handler: obs.Handler(reg, slow, tracer, srv.Ready)}
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) {
				log.Printf("siasserver: metrics listener: %v", err)
			}
		}()
	}
	if follower != nil {
		log.Printf("siasserver: follower of %s (announce %s); read-only until promotion", cfg.follow, cfg.announce)
		follower.Run()
	}

	serveErr := make(chan error, 1)
	go func() {
		log.Printf("siasserver: shards=%d pool=%d data=%s listening on %s",
			cfg.shards, cfg.pool, orMem(cfg.dataDir), cfg.addr)
		serveErr <- srv.ListenAndServe(cfg.addr)
	}()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		log.Printf("siasserver: %s received, draining...", sig)
		if follower != nil {
			follower.Stop()
		}
		drainStart := time.Now()
		if err := srv.Shutdown(context.Background()); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-serveErr; err != nil {
			return err
		}
		st := srv.Stats()
		est := shard.Aggregate(router.Stats())
		rst := router.RouterStats()
		log.Printf("siasserver: drained in %.3fs (conns=%d requests=%d overloaded=%d drain-rejected=%d commits=%d flushes=%d batches=%d cross-shard=%d)",
			time.Since(drainStart).Seconds(), st.Connections, st.Requests, st.Overloaded, st.DrainRejected,
			est.Commits, est.CommitFlushes, est.CommitBatches, rst.CrossCommits)
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}

	return closeAll(closers)
}

func closeAll(closers []func() error) error {
	var first error
	for _, c := range closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func orMem(dir string) string {
	if dir == "" {
		return "(memory)"
	}
	return dir
}
