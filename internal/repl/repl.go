// Package repl implements WAL log-shipping replication.
//
// The primary side lives in internal/server: a SUBSCRIBE request turns a
// connection into a log stream, shipping CRC-framed WAL records (read off
// the log device with wal.ReadBatch, below the durable LSN) as LOGBATCH
// frames, one cursor per shard, with start-LSN resume.
//
// This package is the follower side. A Follower dials the primary,
// subscribes from its own logs' current ends, and for every received batch
//
//  1. re-appends the records verbatim to its local WAL (the encoding is
//     deterministic and both logs are one stream that every restart
//     continues at its exact end, so the follower's log stays byte-identical
//     to the primary's — which is what makes "lag" a plain LSN subtraction
//     and lets a restarted follower resume from exactly where it stopped);
//  2. replays them through the engine's idempotent recovery redo and folds
//     each record into the volatile read structures incrementally
//     (engine.ApplyRecord), the way the primary's own write path did.
//
// Reads on a follower run as read-only snapshot transactions at the applied
// horizon; publishing newly applied records to fresh snapshots is a cheap
// horizon advance (engine.RefreshReplica), not a rebuild, so follower read
// latency is independent of state size. Promotion — by operator PROMOTE
// frame or automatically when the primary drains and ends the stream — stops
// the subscription, finishes replay, and flips the engines writable.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/wal"
	"sias/internal/wire"
)

// errDrained signals a clean end-of-stream: the primary drained and this
// follower is the designated successor — it should promote itself.
var errDrained = errors.New("repl: primary drained")

// dialTimeout bounds each connection attempt to the primary.
const dialTimeout = 3 * time.Second

// Config configures a Follower.
type Config struct {
	// PrimaryAddr is the primary server's listen address.
	PrimaryAddr string
	// Announce is this follower's client-reachable address; the primary
	// embeds it in SHUTTING_DOWN responses so clients fail over. Optional.
	Announce string
	// Shards are the follower's engines, in the same shard order as the
	// primary's. Each must already be in replica mode (engine.SetReplica).
	Shards []*engine.Facade
	// Logf logs replication progress (default log.Printf).
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records a "repl.apply" span for every applied
	// batch that carries trace-context records (wal.RecTraceCtx), linked by
	// trace id to the originating commit so a cross-process trace shows when
	// its writes became visible on this follower.
	Tracer *obs.Tracer
}

// Follower streams and replays a primary's WAL. One mutex serializes state
// changes (apply, refresh, promote take it exclusively) against served reads
// (the server holds it shared across each data op).
type Follower struct {
	cfg Config

	// addrMu guards primary, which starts as cfg.PrimaryAddr and repoints to
	// the designated successor when a draining primary ends the stream with
	// another follower's address.
	addrMu  sync.Mutex
	primary string

	mu sync.RWMutex // write: applyBatch/Refresh/Promote; read: served data ops

	applied        []atomic.Uint64 // per-shard local log end = applied LSN
	primaryDurable []atomic.Uint64 // per-shard last reported primary durable LSN
	appliedRecs    []atomic.Int64  // per-shard records replayed through the engine

	stopCh      chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	promoting   sync.WaitGroup // a self-promotion Run started
	promoted    atomic.Bool
	promoteOnce sync.Once
	promoteErr  error
}

// NewFollower validates cfg and returns a Follower (not yet running).
func NewFollower(cfg Config) (*Follower, error) {
	if cfg.PrimaryAddr == "" {
		return nil, errors.New("repl: PrimaryAddr is required")
	}
	if len(cfg.Shards) == 0 {
		return nil, errors.New("repl: at least one shard is required")
	}
	for i, fc := range cfg.Shards {
		if fc == nil || !fc.DB().Replica() {
			return nil, fmt.Errorf("repl: shard %d is not in replica mode", i)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	f := &Follower{
		cfg:            cfg,
		primary:        cfg.PrimaryAddr,
		applied:        make([]atomic.Uint64, len(cfg.Shards)),
		primaryDurable: make([]atomic.Uint64, len(cfg.Shards)),
		appliedRecs:    make([]atomic.Int64, len(cfg.Shards)),
		stopCh:         make(chan struct{}),
	}
	for i, fc := range cfg.Shards {
		f.applied[i].Store(uint64(fc.DB().WAL().NextLSN()))
	}
	return f, nil
}

// Run starts the subscription loop in the background. It reconnects on
// errors (resuming from the applied LSN) until promotion or a clean
// end-of-stream from a draining primary, which triggers self-promotion.
func (f *Follower) Run() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case <-f.stopCh:
				return
			default:
			}
			err := f.stream()
			if errors.Is(err, errDrained) {
				// The primary checkpointed and ended the stream; everything
				// it ever logged is applied. Promote from a fresh goroutine —
				// Promote waits for this one to exit.
				f.cfg.Logf("repl: primary drained; promoting")
				f.promoting.Add(1)
				go func() {
					defer f.promoting.Done()
					f.Promote()
				}()
				return
			}
			select {
			case <-f.stopCh:
				return
			case <-time.After(200 * time.Millisecond):
				f.cfg.Logf("repl: stream ended (%v); reconnecting to %s", err, f.PrimaryAddr())
			}
		}
	}()
}

// PrimaryAddr reports the address the follower currently streams from —
// cfg.PrimaryAddr until a drain handoff repoints it at the successor.
func (f *Follower) PrimaryAddr() string {
	f.addrMu.Lock()
	defer f.addrMu.Unlock()
	return f.primary
}

func (f *Follower) setPrimary(addr string) {
	f.addrMu.Lock()
	f.primary = addr
	f.addrMu.Unlock()
}

// streamEnded interprets a SHUTTING_DOWN end-of-stream frame from a draining
// primary. Its payload names the designated successor: an empty payload or
// our own announce address means this follower is it (promote); any other
// address is a peer to follow — repoint there and resubscribe, so the fleet
// reconverges under the new primary instead of promoting en masse.
func (f *Follower) streamEnded(successor string) error {
	if successor == "" || successor == f.cfg.Announce {
		return errDrained
	}
	f.setPrimary(successor)
	return fmt.Errorf("repl: primary drained; following designated successor %s", successor)
}

// stream runs one subscription connection until error or drain.
func (f *Follower) stream() error {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.Dial("tcp", f.PrimaryAddr())
	if err != nil {
		return err
	}
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Unblock the read loop when Promote stops the follower.
		select {
		case <-f.stopCh:
			conn.Close()
		case <-done:
		}
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriter(conn)
	var b wire.Buf
	b.Bytes([]byte(f.cfg.Announce))
	b.U32(uint32(len(f.cfg.Shards)))
	for i := range f.cfg.Shards {
		b.U64(f.applied[i].Load())
	}
	if err := wire.WriteFrame(bw, uint8(wire.OpSubscribe), b.B); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	code, payload, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	switch wire.Code(code) {
	case wire.CodeOK:
		r := wire.Reader{B: payload}
		n, err := r.U32()
		if err != nil || int(n) != len(f.cfg.Shards) {
			return fmt.Errorf("repl: subscribe handshake: primary has %d shards, follower %d", n, len(f.cfg.Shards))
		}
		for i := 0; i < int(n); i++ {
			d, err := r.U64()
			if err != nil {
				return fmt.Errorf("repl: subscribe handshake: %w", err)
			}
			f.primaryDurable[i].Store(d)
		}
	case wire.CodeShuttingDown:
		return f.streamEnded(string(payload))
	default:
		return fmt.Errorf("repl: subscribe rejected: %w", wire.ErrOf(wire.Code(code), string(payload)))
	}

	for {
		code, payload, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		switch wire.Code(code) {
		case wire.CodeLogBatch:
			r := wire.Reader{B: payload}
			sh, err1 := r.U32()
			start, err2 := r.U64()
			pd, err3 := r.U64()
			data, err4 := r.Bytes()
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return fmt.Errorf("repl: malformed LOG_BATCH")
			}
			if int(sh) >= len(f.cfg.Shards) {
				return fmt.Errorf("repl: LOG_BATCH for unknown shard %d", sh)
			}
			if err := f.applyBatch(int(sh), wal.LSN(start), data, wal.LSN(pd)); err != nil {
				return err
			}
		case wire.CodeShuttingDown:
			return f.streamEnded(string(payload))
		default:
			return fmt.Errorf("repl: unexpected frame %s on subscription", wire.Code(code))
		}
	}
}

// applyBatch mirrors one batch into the local WAL and replays it. Duplicate
// prefixes (a reconnect race can re-ship records) are dropped. A batch that
// starts past the local log end would leave a hole in the mirror, so it is
// refused: the stream reconnects from the applied end, as after any apply
// error.
func (f *Follower) applyBatch(shard int, start wal.LSN, data []byte, primaryDurable wal.LSN) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.primaryDurable[shard].Store(uint64(primaryDurable))
	fc := f.cfg.Shards[shard]
	w := fc.DB().WAL()
	if len(data) == 0 { // heartbeat
		return nil
	}
	cur := w.NextLSN()
	if start < cur {
		if start+wal.LSN(len(data)) <= cur {
			return nil // entirely replayed already
		}
		data = data[cur-start:]
		start = cur
	}
	if start > cur {
		return fmt.Errorf("repl: shard %d: batch starts at LSN %d, past the local log end %d", shard, start, cur)
	}
	applyStart := time.Now()
	var traceIDs map[uint64]int // trace id -> records applied under it
	for len(data) > 0 {
		rec, n, derr := wal.DecodeRecord(data)
		if derr != nil {
			return fmt.Errorf("repl: shard %d: corrupt record at LSN %d: %w", shard, start, derr)
		}
		if f.cfg.Tracer != nil && rec.Type == wal.RecTraceCtx {
			if traceIDs == nil {
				traceIDs = map[uint64]int{}
			}
			traceIDs[rec.Aux]++
		}
		w.Append(&rec)
		if err := fc.ApplyRecord(&rec); err != nil {
			return fmt.Errorf("repl: shard %d: apply at LSN %d: %w", shard, start, err)
		}
		f.appliedRecs[shard].Add(1)
		data = data[n:]
		start += wal.LSN(n)
	}
	// Force the mirrored records so a follower restart resumes past them.
	if err := fc.FlushWAL(); err != nil {
		return err
	}
	f.applied[shard].Store(uint64(w.NextLSN()))
	if len(traceIDs) > 0 {
		// Stitch the apply back into the originating trace. The span is
		// parentless (the parent span id never crosses the log, only the
		// trace id does) and forced past the sampler — the primary already
		// decided this transaction is sampled by logging RecTraceCtx at all.
		end := time.Now()
		for id := range traceIDs {
			sp := f.cfg.Tracer.LinkedSpanAt(id, "repl.apply", applyStart)
			sp.SetShard(shard)
			sp.Annotate("applied_lsn", strconv.FormatUint(uint64(w.NextLSN()), 10))
			sp.FinishAt(end)
		}
	}
	return nil
}

// Refresh publishes applied records to new snapshots on every shard that
// applied some since its last refresh — a cheap horizon advance, since apply
// maintains the volatile structures incrementally. The server calls it before
// every op that takes a new view of the data (wire.KindBegin, KindControl);
// it is a no-op when nothing changed.
func (f *Follower) Refresh() error {
	dirty := false
	for _, fc := range f.cfg.Shards {
		if fc.DB().ReplicaDirty() {
			dirty = true
			break
		}
	}
	if !dirty {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, fc := range f.cfg.Shards {
		if !fc.DB().ReplicaDirty() {
			continue
		}
		if err := fc.RefreshReplica(); err != nil {
			return fmt.Errorf("repl: refresh shard %d: %w", i, err)
		}
	}
	return nil
}

// AppliedLSNs snapshots the per-shard applied LSN vector — what the follower
// advertises to LSN-consistent client routing (an applied position covers a
// client's last observed commit iff it is >= on every shard).
func (f *Follower) AppliedLSNs() []uint64 {
	out := make([]uint64, len(f.applied))
	for i := range f.applied {
		out[i] = f.applied[i].Load()
	}
	return out
}

// DataRLock takes the shared lock served data operations run under,
// excluding concurrent applies and refreshes.
func (f *Follower) DataRLock() { f.mu.RLock() }

// DataRUnlock releases DataRLock.
func (f *Follower) DataRUnlock() { f.mu.RUnlock() }

// Promoted reports whether the follower has been promoted to a primary.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Promote stops the subscription, finishes replay of everything received,
// flips every shard engine writable — a participant the stream left prepared
// commits iff its coordinator shard's mirrored log holds the commit decision —
// and marks the follower promoted.
// Idempotent; safe from any goroutine except the subscription loop itself.
func (f *Follower) Promote() error {
	f.promoteOnce.Do(func() {
		f.stopOnce.Do(func() { close(f.stopCh) })
		f.wg.Wait()
		f.mu.Lock()
		defer f.mu.Unlock()
		decs, err := f.inDoubtDecisions()
		if err != nil {
			f.promoteErr = err
			return
		}
		resolve := func(gid uint64, coord uint32) (commit, known bool) {
			commit, known = decs[coord][gid]
			return commit, known
		}
		for i, fc := range f.cfg.Shards {
			fc.DB().SetInDoubtResolver(resolve)
			if err := fc.Promote(); err != nil {
				f.promoteErr = fmt.Errorf("repl: promote shard %d: %w", i, err)
				return
			}
		}
		f.promoted.Store(true)
		f.cfg.Logf("repl: promoted; %d shard(s) now accept writes", len(f.cfg.Shards))
	})
	return f.promoteErr
}

// inDoubtDecisions reads the coordinator decisions that some shard's
// prepared participants still wait on, from the coordinator shards' mirrored
// logs: coordinator shard -> gid -> committed. The primary acknowledges a
// cross-shard commit once the coordinator's decision is durable, before the
// participants' outcome records are, so a follower can hold a participant's
// PREPARE and its coordinator's decision without the participant's outcome;
// without these decisions promotion would presume that half aborted and
// split a committed transaction. Only the shards named are read, so a
// promotion with nothing in doubt reads no log.
func (f *Follower) inDoubtDecisions() (map[uint32]map[uint64]bool, error) {
	decs := map[uint32]map[uint64]bool{}
	for _, fc := range f.cfg.Shards {
		for _, c := range fc.DB().InDoubtCoordinators() {
			if _, read := decs[c]; read || int(c) >= len(f.cfg.Shards) {
				continue
			}
			d, err := f.cfg.Shards[c].DB().LoggedDecisions()
			if err != nil {
				return nil, fmt.Errorf("repl: read shard %d decisions: %w", c, err)
			}
			decs[c] = d
		}
	}
	return decs, nil
}

// Stop ends the subscription without promoting (tests, shutdown). A
// self-promotion a drained stream already started finishes first.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
	f.promoting.Wait()
}

// ShardLag is one shard's replication position. LagBytes measures how far
// the mirrored log trails the primary's durable end.
type ShardLag struct {
	AppliedLSN        uint64 `json:"applied_lsn" metric:"sias_repl_applied_lsn,gauge" help:"Follower applied LSN (local mirrored log end)."`
	PrimaryDurableLSN uint64 `json:"primary_durable_lsn" metric:"sias_repl_primary_durable_lsn,gauge" help:"Last primary durable LSN reported to this follower."`
	LagBytes          uint64 `json:"lag_bytes" metric:"sias_repl_lag_bytes,gauge" help:"Primary durable LSN minus applied LSN (byte-exact mirrored log)."`
	AppliedRecords    int64  `json:"applied_records" metric:"sias_repl_applied_records_total,counter" help:"WAL records replayed through the engine."`
}

// Stats is the follower's replication position, embedded in STATS replies.
type Stats struct {
	Primary  string     `json:"primary"`
	Promoted bool       `json:"promoted" metric:"sias_repl_promoted,gauge" help:"1 once a follower has been promoted to primary, 0 before."`
	Shards   []ShardLag `json:"shards" label:"shard"`
}

// Stats snapshots replication lag. Lag is an exact byte count because the
// follower's log mirrors the primary's byte for byte.
func (f *Follower) Stats() Stats {
	s := Stats{Primary: f.PrimaryAddr(), Promoted: f.promoted.Load()}
	for i := range f.applied {
		a := f.applied[i].Load()
		pd := f.primaryDurable[i].Load()
		lag := uint64(0)
		if pd > a {
			lag = pd - a
		}
		s.Shards = append(s.Shards, ShardLag{
			AppliedLSN: a, PrimaryDurableLSN: pd, LagBytes: lag,
			AppliedRecords: f.appliedRecs[i].Load(),
		})
	}
	return s
}
