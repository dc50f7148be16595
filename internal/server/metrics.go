package server

import (
	"errors"
	"strconv"
	"time"

	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/wire"
)

// This file wires the whole deployment into an obs.Registry. The naming
// scheme is sias_<subsystem>_<name>{shard="..."}; durations are seconds,
// sizes are bytes, counters end in _total.
//
// Two kinds of families are registered:
//
//   - static instruments (latency histograms, the slow-op counter) owned by
//     the registry and injected into the component that observes into them
//     (wal.Writer.SetDurationMetrics, engine.Facade.SetCommitMetrics);
//   - collected families, whose values are read at scrape time from the
//     same atomics the STATS wire frame reports (engine.Stats, Server.Stats,
//     repl.Follower.Stats) — so /metrics and STATS agree by construction.

// timedOps are the request ops measured into sias_server_op_seconds and
// eligible for the slow-op log. STATS/SUBSCRIBE/PROMOTE and the catalog
// control plane (SNAPSHOT, DDL, LIST_TABLES) are not timed.
var timedOps = [...]wire.Op{
	wire.OpBegin, wire.OpCommit, wire.OpAbort, wire.OpGet,
	wire.OpInsert, wire.OpUpdate, wire.OpDelete, wire.OpScan,
	wire.OpBeginAt, wire.OpInsertRow, wire.OpGetRow, wire.OpUpdateRow,
	wire.OpDeleteRow, wire.OpScanTable, wire.OpIndexLookup, wire.OpIndexRange,
}

// maxOp bounds the opHist lookup array (wire op codes are small and dense).
const maxOp = 32

// setupMetrics registers every family and injects the static instruments.
// Called once from New, before any connection exists.
func (s *Server) setupMetrics(reg *obs.Registry, slow *obs.SlowOpLog) {
	s.slow = slow
	router := s.cfg.Router

	// --- server: per-op latency + slow ops -------------------------------
	for _, op := range timedOps {
		s.opHist[op] = reg.Histogram("sias_server_op_seconds",
			"Server-side request latency by wire op, admission to reply encode.",
			obs.DefLatencyBuckets, obs.Labels{"op": op.String()})
	}
	slow.SetCounter(reg.Counter("sias_server_slow_ops_total",
		"Requests that exceeded the -slow-op-ms threshold.", nil))

	reg.CollectCounter("sias_server_connections_total",
		"Connections accepted.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.conns.Load()))
		})
	reg.CollectCounter("sias_server_requests_total",
		"Requests admitted and executed.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.requests.Load()))
		})
	reg.CollectCounter("sias_server_overloaded_total",
		"Requests rejected by admission control.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.overloaded.Load()))
		})
	reg.CollectCounter("sias_server_drain_rejected_total",
		"Requests rejected because the server was draining.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.drainRejected.Load()))
		})
	reg.CollectGauge("sias_server_open_txns",
		"Transactions currently open across sessions.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.openTxns.Load()))
		})
	reg.CollectGauge("sias_server_inflight_requests",
		"Requests read but not yet fully answered.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.inflight.Load()))
		})
	if s.tracer != nil {
		reg.CollectCounter("sias_trace_spans_total",
			"Distributed trace spans recorded (sampled or force-kept).",
			func(emit func(obs.Labels, float64)) {
				emit(nil, float64(s.tracer.Spans()))
			})
		reg.CollectCounter("sias_trace_dropped_total",
			"Distributed trace spans dropped by a full collector queue.",
			func(emit func(obs.Labels, float64)) {
				emit(nil, float64(s.tracer.Dropped()))
			})
	}
	reg.CollectGauge("sias_server_subscribers",
		"Connections currently streaming the WAL to followers.", func(emit func(obs.Labels, float64)) {
			s.mu.Lock()
			n := len(s.subs)
			s.mu.Unlock()
			emit(nil, float64(n))
		})

	// --- router ----------------------------------------------------------
	reg.CollectGauge("sias_router_shards",
		"Configured shard count.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(router.N()))
		})
	reg.CollectCounter("sias_router_cross_commits_total",
		"Commits spanning more than one shard.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(router.RouterStats().CrossCommits))
		})
	reg.CollectCounter("sias_router_range_fanouts_total",
		"Range operations fanned out across all shards.", func(emit func(obs.Labels, float64)) {
			emit(nil, float64(router.RouterStats().RangeFanouts))
		})

	// --- cross-shard 2PC ---------------------------------------------------
	// Router-level outcomes plus the prepare fan-out latency. A failed
	// commit-decision flush is NOT an abort — the decision may still be on
	// the device — so it gets its own in-doubt counter rather than an abort
	// reason.
	reg.CollectCounter("sias_2pc_commits_total",
		"Cross-shard transactions that reached a durable commit decision.",
		func(emit func(obs.Labels, float64)) {
			emit(nil, float64(router.RouterStats().TwoPCCommits))
		})
	reg.CollectCounter("sias_2pc_aborts_total",
		"Cross-shard transactions aborted by the coordinator, by reason.",
		func(emit func(obs.Labels, float64)) {
			emit(obs.Labels{"reason": "prepare"}, float64(router.RouterStats().TwoPCAbortPrepare))
		})
	reg.CollectCounter("sias_2pc_indoubt_total",
		"Cross-shard transactions whose commit-decision flush failed; outcome unknown until restart recovery consults the log.",
		func(emit func(obs.Labels, float64)) {
			emit(nil, float64(router.RouterStats().TwoPCInDoubt))
		})
	router.SetTwoPCMetrics(reg.Histogram("sias_2pc_prepare_seconds",
		"Wall-clock duration of the parallel prepare fan-out across participants.",
		obs.DefLatencyBuckets, nil))

	// --- per-shard engine/pool/device/vidmap (collected) -----------------
	// One callback per family; each snapshots the same engine.Stats the
	// STATS frame serializes. perShard hides the snapshot loop.
	perShard := func(fn func(shard obs.Labels, st engine.Stats, emit func(obs.Labels, float64))) func(emit func(obs.Labels, float64)) {
		return func(emit func(obs.Labels, float64)) {
			for i, st := range router.Stats() {
				fn(obs.Labels{"shard": strconv.Itoa(i)}, st, emit)
			}
		}
	}
	reg.CollectCounter("sias_engine_commits_total", "Transactions committed.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Commits))
		}))
	reg.CollectCounter("sias_engine_readonly_commits_total",
		"Committed transactions that wrote nothing: no log record, no flush (included in commits).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.ReadOnlyCommits))
		}))
	reg.CollectCounter("sias_engine_aborts_total", "Transactions aborted.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Aborts))
		}))
	reg.CollectCounter("sias_engine_commit_flushes_total",
		"WAL flushes issued on behalf of commits (group commit shares them).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.CommitFlushes))
		}))
	reg.CollectCounter("sias_engine_commit_batches_total",
		"Commit flushes that covered more than one transaction.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.CommitBatches))
		}))
	reg.CollectCounter("sias_engine_prepares_total",
		"2PC prepare records durably logged as a participant.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Prepares))
		}))
	reg.CollectCounter("sias_engine_indoubt_commits_total",
		"In-doubt transactions recovery resolved to commit via the decision log.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.InDoubtCommits))
		}))
	reg.CollectCounter("sias_engine_indoubt_aborts_total",
		"In-doubt transactions recovery resolved to abort (presumed abort).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.InDoubtAborts))
		}))
	reg.CollectGauge("sias_engine_allocated_pages", "Heap pages allocated.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.AllocatedPages))
		}))

	// --- secondary indexes and per-table catalog gauges ------------------
	reg.CollectCounter("sias_index_lookups_total",
		"Secondary index probes (point lookups and range scans).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.IndexLookups))
		}))
	reg.CollectCounter("sias_index_inserts_total",
		"Secondary index entry inserts, including recovery rebuilds.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.IndexInserts))
		}))
	perTable := func(fn func(ts engine.TableStats) float64) func(emit func(obs.Labels, float64)) {
		return perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			for _, ts := range st.Tables {
				emit(obs.Labels{"shard": l["shard"], "table": ts.Name}, fn(ts))
			}
		})
	}
	reg.CollectGauge("sias_table_rows",
		"Visible primary index entries per table.",
		perTable(func(ts engine.TableStats) float64 { return float64(ts.Rows) }))
	reg.CollectGauge("sias_table_indexes",
		"Live secondary indexes per table.",
		perTable(func(ts engine.TableStats) float64 { return float64(ts.Indexes) }))
	reg.CollectGauge("sias_table_index_entries",
		"Live secondary index entries per table (lazy deletes included until maintenance).",
		perTable(func(ts engine.TableStats) float64 { return float64(ts.IndexEntries) }))

	reg.CollectCounter("sias_pool_hits_total", "Buffer pool page hits.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.Hits))
		}))
	reg.CollectCounter("sias_pool_misses_total", "Buffer pool page misses.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.Misses))
		}))
	reg.CollectCounter("sias_pool_evictions_total", "Buffer pool evictions.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.Evictions))
		}))
	reg.CollectCounter("sias_pool_dirty_writebacks_total",
		"Dirty pages written back (evictions + sweeps + checkpoints).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.DirtyOut))
		}))
	reg.CollectGauge("sias_pool_hit_ratio",
		"Buffer pool hit ratio, hits/(hits+misses).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, st.Pool.HitRatio())
		}))
	reg.CollectCounter("sias_pool_partition_evictions_total",
		"Buffer pool evictions per lock stripe.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			for p, n := range st.Pool.PartitionEvictions {
				emit(obs.Labels{"shard": l["shard"], "partition": strconv.Itoa(p)}, float64(n))
			}
		}))
	reg.CollectGauge("sias_pool_io_pending",
		"Frames with a device read in flight (IO-pending state).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.IOPending))
		}))
	reg.CollectCounter("sias_pool_read_waits_total",
		"Gets that singleflight-joined another caller's in-flight read.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.ReadWaits))
		}))
	reg.CollectCounter("sias_pool_prefetch_issued_total",
		"Pages staged by the scan readahead prefetcher.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.PrefetchIssued))
		}))
	reg.CollectCounter("sias_pool_prefetch_coalesced_total",
		"Device reads saved by merging adjacent prefetch pages into one pread.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.PrefetchCoalesced))
		}))
	reg.CollectCounter("sias_pool_prefetch_wasted_total",
		"Prefetched pages evicted before any Get used them.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.Pool.PrefetchWasted))
		}))

	// Device families carry a device label: the data heap vs the WAL log.
	perDev := func(fn func(st engine.Stats) (data, walDev float64)) func(emit func(obs.Labels, float64)) {
		return perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			d, w := fn(st)
			emit(obs.Labels{"shard": l["shard"], "device": "data"}, d)
			emit(obs.Labels{"shard": l["shard"], "device": "wal"}, w)
		})
	}
	reg.CollectCounter("sias_device_reads_total", "Host page reads.",
		perDev(func(st engine.Stats) (float64, float64) {
			return float64(st.Data.Reads), float64(st.WALDevice.Reads)
		}))
	reg.CollectCounter("sias_device_writes_total", "Host page writes.",
		perDev(func(st engine.Stats) (float64, float64) {
			return float64(st.Data.Writes), float64(st.WALDevice.Writes)
		}))
	reg.CollectCounter("sias_device_read_bytes_total", "Host bytes read.",
		perDev(func(st engine.Stats) (float64, float64) {
			return float64(st.Data.BytesRead), float64(st.WALDevice.BytesRead)
		}))
	reg.CollectCounter("sias_device_written_bytes_total", "Host bytes written.",
		perDev(func(st engine.Stats) (float64, float64) {
			return float64(st.Data.BytesWritten), float64(st.WALDevice.BytesWritten)
		}))
	reg.CollectCounter("sias_device_phys_writes_total",
		"Physical page programs including flash GC relocation (0 off flash).",
		perDev(func(st engine.Stats) (float64, float64) {
			return float64(st.Data.PhysWrites), float64(st.WALDevice.PhysWrites)
		}))
	reg.CollectCounter("sias_device_erases_total", "Flash block erases.",
		perDev(func(st engine.Stats) (float64, float64) {
			return float64(st.Data.Erases), float64(st.WALDevice.Erases)
		}))
	reg.CollectGauge("sias_device_write_amplification",
		"Physical page programs per host page write (0 off flash).",
		perDev(func(st engine.Stats) (float64, float64) {
			return st.Data.WriteAmplification(), st.WALDevice.WriteAmplification()
		}))

	reg.CollectGauge("sias_wal_durable_lsn",
		"Durable end of the WAL: what replication can ship.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.WALDurableLSN))
		}))
	reg.CollectCounter("sias_wal_page_writes_total", "WAL pages written.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.WALPageWrites))
		}))

	reg.CollectCounter("sias_vidmap_residency_hits_total",
		"VIDmap residency cache hits (0 with an unlimited budget).",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.VMapResidencyHits))
		}))
	reg.CollectCounter("sias_vidmap_residency_misses_total",
		"VIDmap residency cache misses, each costing one device page read.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, float64(st.VMapResidencyMisses))
		}))
	reg.CollectGauge("sias_vidmap_residency_hit_ratio",
		"VIDmap residency hit ratio; 1 when the map is fully resident.",
		perShard(func(l obs.Labels, st engine.Stats, emit func(obs.Labels, float64)) {
			emit(l, st.VMapHitRatio)
		}))

	// --- per-shard injected histograms (WAL timings, group commit) -------
	for i := 0; i < router.N(); i++ {
		l := obs.Labels{"shard": strconv.Itoa(i)}
		fc := router.Shard(i).Facade
		fc.DB().WAL().SetDurationMetrics(
			reg.Histogram("sias_wal_append_seconds",
				"WAL record append latency including latch wait.",
				obs.DefLatencyBuckets, l),
			reg.Histogram("sias_wal_fsync_seconds",
				"WAL flush latency, wait-to-flush through fsync return.",
				obs.DefLatencyBuckets, l))
		fc.SetCommitMetrics(
			reg.Histogram("sias_commit_batch_size",
				"Transactions per group-commit flush.",
				obs.DefSizeBuckets, l),
			reg.Histogram("sias_commit_linger_seconds",
				"Wall-clock time a group-commit leader lingered for its batch.",
				obs.DefLatencyBuckets, l))
		fc.DB().Pool().SetIOMetrics(
			reg.Histogram("sias_pool_read_wait_seconds",
				"Wall-clock time a Get blocked on another caller's in-flight read.",
				obs.DefLatencyBuckets, l))
	}

	// --- replication (collected; families render empty on a primary so
	// dashboards and CI greps see HELP/TYPE either way) --------------------
	reg.CollectGauge("sias_repl_lag_bytes",
		"Primary durable LSN minus applied LSN (byte-exact mirrored log).",
		func(emit func(obs.Labels, float64)) {
			if s.cfg.Replica == nil {
				return
			}
			for i, sh := range s.cfg.Replica.Stats().Shards {
				emit(obs.Labels{"shard": strconv.Itoa(i)}, float64(sh.LagBytes))
			}
		})
	reg.CollectGauge("sias_repl_lag_records",
		"Replay backlog: records received off the stream but not yet applied.",
		func(emit func(obs.Labels, float64)) {
			if s.cfg.Replica == nil {
				return
			}
			for i, sh := range s.cfg.Replica.Stats().Shards {
				emit(obs.Labels{"shard": strconv.Itoa(i)}, float64(sh.LagRecords))
			}
		})
	reg.CollectCounter("sias_repl_applied_records_total",
		"WAL records replayed through the engine.",
		func(emit func(obs.Labels, float64)) {
			if s.cfg.Replica == nil {
				return
			}
			for i, sh := range s.cfg.Replica.Stats().Shards {
				emit(obs.Labels{"shard": strconv.Itoa(i)}, float64(sh.AppliedRecords))
			}
		})
	reg.CollectGauge("sias_repl_applied_lsn",
		"Follower applied LSN (local mirrored log end).",
		func(emit func(obs.Labels, float64)) {
			if s.cfg.Replica == nil {
				return
			}
			for i, sh := range s.cfg.Replica.Stats().Shards {
				emit(obs.Labels{"shard": strconv.Itoa(i)}, float64(sh.AppliedLSN))
			}
		})
	reg.CollectGauge("sias_repl_primary_durable_lsn",
		"Last primary durable LSN reported to this follower.",
		func(emit func(obs.Labels, float64)) {
			if s.cfg.Replica == nil {
				return
			}
			for i, sh := range s.cfg.Replica.Stats().Shards {
				emit(obs.Labels{"shard": strconv.Itoa(i)}, float64(sh.PrimaryDurableLSN))
			}
		})
	// Primary-side per-subscriber stream health: how far each connected
	// follower's shipped position trails the durable logs, and the send-queue
	// backlog the bounded-lag policy watches. Labeled by the follower's
	// announce address (its remote address when it did not announce).
	snapshotSubs := func() []*subscriber {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]*subscriber, 0, len(s.subs))
		for _, sub := range s.subs {
			out = append(out, sub)
		}
		return out
	}
	reg.CollectGauge("sias_repl_subscriber_lag_bytes",
		"Per-subscriber ship lag on the primary: durable LSN minus shipped LSN.",
		func(emit func(obs.Labels, float64)) {
			n := router.N()
			durables := make([]uint64, n)
			for i := 0; i < n; i++ {
				durables[i] = uint64(router.Shard(i).Facade.DB().WAL().Durable())
			}
			for _, sub := range snapshotSubs() {
				for i := 0; i < n; i++ {
					lag := 0.0
					if sent := sub.sent[i].Load(); durables[i] > sent {
						lag = float64(durables[i] - sent)
					}
					emit(obs.Labels{"peer": sub.peer, "shard": strconv.Itoa(i)}, lag)
				}
			}
		})
	reg.CollectGauge("sias_repl_subscriber_queue_depth",
		"Frames buffered in a subscriber's bounded send queue.",
		func(emit func(obs.Labels, float64)) {
			for _, sub := range snapshotSubs() {
				emit(obs.Labels{"peer": sub.peer}, float64(len(sub.q)))
			}
		})
	reg.CollectCounter("sias_server_subscriber_drops_total",
		"Subscribers disconnected by the bounded-lag slow-subscriber policy.",
		func(emit func(obs.Labels, float64)) {
			emit(nil, float64(s.subDrops.Load()))
		})

	reg.CollectGauge("sias_repl_promoted",
		"1 once a follower has been promoted to primary, 0 before.",
		func(emit func(obs.Labels, float64)) {
			if s.cfg.Replica == nil {
				return
			}
			v := 0.0
			if s.cfg.Replica.Promoted() {
				v = 1
			}
			emit(nil, v)
		})
}

// observeOp records one handled request into the per-op histogram and the
// slow-op log. Label metadata for the slow path (owning shard, transaction
// handle) is decoded from the request payload only once the op is already
// known to be slow. sp is the op's trace span (nil when untraced): slow-op
// records carry its trace id, and a slow op that was NOT sampled gets a
// retrospective force-kept root span so every slow-op record links to a
// trace regardless of the sampling rate.
func (s *Server) observeOp(op wire.Op, payload []byte, sp *obs.Span, t0 time.Time, d time.Duration) {
	if int(op) < len(s.opHist) {
		if h := s.opHist[op]; h != nil {
			h.Observe(d.Seconds())
		}
	}
	if s.slow != nil && d >= s.slow.Threshold() {
		traceID := sp.TraceID()
		if traceID == 0 && s.tracer != nil && traceable(op) {
			fsp := s.tracer.ForceRootAt(op.String(), t0)
			fsp.Annotate("slow", "forced")
			fsp.FinishAt(t0.Add(d))
			traceID = fsp.TraceID()
		}
		sh, txn := s.slowOpMeta(op, payload)
		s.slow.Record(op.String(), sh, txn, traceID, d)
	}
}

// slowOpMeta best-effort decodes (shard, txn) for a slow-op record: every
// data op leads with the transaction handle, and point ops carry the key
// that pins them to one shard. BEGIN and fan-out ops report shard -1.
func (s *Server) slowOpMeta(op wire.Op, payload []byte) (shard int, txn uint64) {
	shard = -1
	r := wire.Reader{B: payload}
	switch op {
	case wire.OpCommit, wire.OpAbort, wire.OpScan,
		wire.OpInsertRow, wire.OpUpdateRow, wire.OpScanTable,
		wire.OpIndexLookup, wire.OpIndexRange:
		txn, _ = r.U64()
	case wire.OpGet, wire.OpInsert, wire.OpUpdate, wire.OpDelete:
		h, err := r.U64()
		if err != nil {
			return
		}
		txn = h
		if key, err := r.I64(); err == nil {
			shard = s.cfg.Router.ShardOf(key)
		}
	case wire.OpGetRow, wire.OpDeleteRow:
		h, err := r.U64()
		if err != nil {
			return
		}
		txn = h
		if _, err := r.Bytes(); err != nil { // table name
			return
		}
		if key, err := r.I64(); err == nil {
			shard = s.cfg.Router.ShardOf(key)
		}
	}
	return
}

// Ready implements the /healthz readiness probe: serving and not draining.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return errors.New("server: not listening yet")
	}
	if s.draining.Load() {
		return errors.New("server: draining")
	}
	return nil
}

// OpLatency is one op's server-side latency summary in the STATS reply,
// extracted from the same histograms /metrics exposes.
type OpLatency struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// opLatencies summarizes the per-op histograms (nil when metrics are off or
// nothing has been observed yet).
func (s *Server) opLatencies() map[string]OpLatency {
	var out map[string]OpLatency
	for _, op := range timedOps {
		h := s.opHist[op]
		if h == nil || h.Count() == 0 {
			continue
		}
		if out == nil {
			out = map[string]OpLatency{}
		}
		out[op.String()] = OpLatency{
			Count: h.Count(),
			P50Ms: h.Quantile(0.50) * 1e3,
			P95Ms: h.Quantile(0.95) * 1e3,
			P99Ms: h.Quantile(0.99) * 1e3,
		}
	}
	return out
}
