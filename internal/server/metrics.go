package server

import (
	"errors"
	"strconv"
	"time"

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
//   - the tagged fields of the struct the STATS frame marshals. A counter's
//     family name, kind and HELP text are struct tags where the field is
//     declared (engine.Stats, buffer.Stats, device.Stats, shard.RouterStats,
//     Stats, repl.ShardLag, ...; grammar in internal/obs/structs.go), one
//     scrape walks one snapshot, and /metrics and STATS agree by
//     construction. Adding a counter is a tagged field plus its fill —
//     nothing in this file.

// scrape is what one /metrics scrape reads: the STATS snapshot plus the
// values that are not a field of it. Repl is nil on a primary and Trace
// without a tracer, so those families then render HELP/TYPE only
// (dashboards and CI greps see them either way).
type scrape struct {
	StatsReply
	Inflight int64           `metric:"sias_server_inflight_requests,gauge" help:"Requests read but not yet fully answered."`
	WriteAmp []deviceAmp     `label:"shard"`
	Subs     []subscriberLag `label:"peer=Peer"`
}

// deviceAmp is device.Stats.WriteAmplification for a shard's two devices.
type deviceAmp struct {
	Data float64 `metric:"sias_device_write_amplification,gauge" help:"Physical page programs per host page write (0 off flash)." label:"device=data"`
	WAL  float64 `metric:"sias_device_write_amplification,gauge" label:"device=wal"`
}

// subscriberLag is one connected follower's stream health on the primary:
// how far its shipped position trails each shard's durable log, and the
// send-queue backlog the bounded-lag policy watches. Peer is the follower's
// announce address (its remote address when it did not announce).
type subscriberLag struct {
	Peer       string
	QueueDepth int      `metric:"sias_repl_subscriber_queue_depth,gauge" help:"Frames buffered in a subscriber's bounded send queue."`
	LagBytes   []uint64 `metric:"sias_repl_subscriber_lag_bytes,gauge" help:"Per-subscriber ship lag on the primary: durable LSN minus shipped LSN." label:"shard"`
}

func (s *Server) newScrape() scrape {
	sc := scrape{StatsReply: s.snapshot(), Inflight: s.inflight.Load()}
	for _, st := range sc.Shards {
		sc.WriteAmp = append(sc.WriteAmp, deviceAmp{st.Data.WriteAmplification(), st.WALDevice.WriteAmplification()})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		sl := subscriberLag{Peer: sub.peer, QueueDepth: len(sub.q), LagBytes: make([]uint64, len(sc.Shards))}
		for i, st := range sc.Shards {
			if sent := sub.sent[i].Load(); st.WALDurableLSN > sent {
				sl.LagBytes[i] = st.WALDurableLSN - sent
			}
		}
		sc.Subs = append(sc.Subs, sl)
	}
	return sc
}

// setupMetrics registers every family and injects the static instruments.
// Called once from New, before any connection exists.
func (s *Server) setupMetrics(reg *obs.Registry, slow *obs.SlowOpLog) {
	s.slow = slow
	router := s.cfg.Router

	// sias_server_op_seconds measures the ops a transaction is made of; meta
	// ops and the catalog control plane (SNAPSHOT, DDL, LIST_TABLES) are not
	// timed.
	for op := wire.Op(0); int(op) < len(s.opHist); op++ {
		if !op.Kind().Transactional() {
			continue
		}
		s.opHist[op] = reg.Histogram("sias_server_op_seconds",
			"Server-side request latency by wire op, admission to reply encode.",
			obs.DefLatencyBuckets, obs.Labels{"op": op.String()})
	}
	slow.SetCounter(reg.Counter("sias_server_slow_ops_total",
		"Requests that exceeded the -slow-op-ms threshold.", nil))

	obs.CollectStruct(reg, s.newScrape)

	router.SetTwoPCMetrics(reg.Histogram("sias_2pc_prepare_seconds",
		"Wall-clock duration of the parallel prepare fan-out across participants.",
		obs.DefLatencyBuckets, nil))

	// --- per-shard injected histograms (WAL timings, group commit) -------
	for i := 0; i < router.N(); i++ {
		l := obs.Labels{"shard": strconv.Itoa(i)}
		fc := router.Shard(i).Facade
		fc.DB().WAL().SetDurationMetrics(
			reg.Histogram("sias_wal_append_seconds",
				"WAL record append latency including latch wait.",
				obs.DefLatencyBuckets, l),
			reg.Histogram("sias_wal_fsync_seconds",
				"WAL flush latency: wait to become the flusher, the one device write, and its fsync under -wal-sync.",
				obs.DefLatencyBuckets, l))
		fc.SetCommitMetrics(reg.Histogram("sias_commit_batch_size",
			"Transactions per group-commit flush.",
			obs.DefSizeBuckets, l))
		fc.DB().Pool().SetIOMetrics(
			reg.Histogram("sias_pool_read_wait_seconds",
				"Wall-clock time a Get blocked on another caller's in-flight read.",
				obs.DefLatencyBuckets, l))
	}
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
		if traceID == 0 && s.tracer != nil && traced(op.Kind()) {
			fsp := s.tracer.ForceRootAt(op.String(), t0)
			fsp.Annotate("slow", "forced")
			fsp.FinishAt(t0.Add(d))
			traceID = fsp.TraceID()
		}
		sh, txn := s.slowOpMeta(op, payload)
		s.slow.Record(op.String(), sh, txn, traceID, d)
	}
}

// slowOpMeta best-effort decodes (shard, txn) for a slow-op record from the
// op's payload shape: a leading transaction handle, and the key that pins a
// point op to one shard. BEGIN and fan-out ops report shard -1.
func (s *Server) slowOpMeta(op wire.Op, payload []byte) (shard int, txn uint64) {
	shard = -1
	shape := op.Shape()
	if shape == wire.ShapeNone {
		return
	}
	r := wire.Reader{B: payload}
	txn, err := r.U64()
	if err != nil || shape == wire.ShapeHandle || shape == wire.ShapeHandleTable {
		return
	}
	if shape == wire.ShapeHandleTableKey {
		if _, err := r.Bytes(); err != nil { // table name
			return
		}
	}
	if key, err := r.I64(); err == nil {
		shard = s.cfg.Router.ShardOf(key)
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
	for op, h := range s.opHist {
		if h == nil || h.Count() == 0 {
			continue
		}
		if out == nil {
			out = map[string]OpLatency{}
		}
		out[wire.Op(op).String()] = OpLatency{
			Count: h.Count(),
			P50Ms: h.Quantile(0.50) * 1e3,
			P95Ms: h.Quantile(0.95) * 1e3,
			P99Ms: h.Quantile(0.99) * 1e3,
		}
	}
	return out
}
