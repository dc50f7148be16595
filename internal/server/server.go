// Package server exposes a SIAS deployment — one or many hash-partitioned
// engine shards behind a shard.Router — over TCP.
//
// The service model is deliberately small and production-shaped:
//
//   - one goroutine per connection, executing that connection's requests in
//     order (clients pipeline; responses come back in request order);
//   - a bounded in-flight semaphore for admission control — when more than
//     MaxInFlight requests are executing server-wide, further requests are
//     rejected immediately with wire.CodeOverloaded instead of queueing
//     unboundedly, so overload degrades into fast typed errors rather than
//     latency collapse (COMMIT and ABORT are never refused: ending a
//     transaction is what frees the server);
//   - graceful drain on Shutdown — stop accepting, let in-flight
//     transactions finish, abort stragglers after a deadline, then
//     checkpoint the shards one at a time.
//
// Point ops route to exactly one shard (hash(key) % N) with no cross-shard
// locking; scans fan out and k-way merge. Every shard has its own WAL
// writer, whose flush is the group commit, so concurrent clients share WAL
// flushes per shard and independent shards flush in parallel.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/repl"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/wal"
	"sias/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Router fronts the engine shard(s) (required). A single-shard router
	// is the unsharded deployment.
	Router *shard.Router
	// MaxInFlight bounds concurrently executing requests other than COMMIT
	// and ABORT (default 64).
	MaxInFlight int
	// Replica, when set, runs the server as a replication follower front
	// end: writes are rejected with wire.CodeReadOnly until promotion, reads
	// serve the applied snapshot, and PROMOTE flips it writable. The
	// Follower's shard order must match the Router's.
	Replica *repl.Follower
	// Obs, when set, wires the whole deployment into this metrics registry
	// (see metrics.go) and times every data op. The registry is typically
	// served on a side HTTP listener via obs.Handler.
	Obs *obs.Registry
	// SlowOps, when set with Obs, records over-threshold requests. Nil (or a
	// nil-returning NewSlowOpLog) disables the slow path entirely.
	SlowOps *obs.SlowOpLog
	// Tracer, when set, records distributed trace spans: every data op
	// arriving in a TRACE envelope continues its carried trace, bare data ops
	// are head-sampled server-side, and over-threshold ops are force-kept.
	// Meta ops (wire.KindMeta) are never traced — their replies must not race
	// the tracer's own counters.
	Tracer *obs.Tracer
}

// drainTimeout bounds Shutdown's wait for in-flight transactions when the
// caller's context carries no deadline.
const drainTimeout = 5 * time.Second

// subscriberStall is the write deadline on every replication stream frame: a
// subscriber whose socket takes no frame for that long is judged too slow and
// disconnected. A dropped follower resumes from its applied LSN on reconnect,
// so the policy trades a resend for an unwedged stream. Each stream is its own
// session goroutine, so followers stream at independent speeds.
const subscriberStall = time.Second

// Stats counts service-layer events, exposed through the STATS op next to
// the engine counters.
type Stats struct {
	Connections   int64 `metric:"sias_server_connections_total,counter" help:"Connections accepted."`
	Requests      int64 `metric:"sias_server_requests_total,counter" help:"Requests admitted and executed."`
	Overloaded    int64 `metric:"sias_server_overloaded_total,counter" help:"Requests rejected by admission control."`
	DrainRejected int64 `metric:"sias_server_drain_rejected_total,counter" help:"Requests rejected because the server was draining."`
	OpenTxns      int64 `metric:"sias_server_open_txns,gauge" help:"Transactions currently open across sessions."`
	Subscribers   int64 `metric:"sias_server_subscribers,gauge" help:"Connections currently streaming the WAL to followers."`
	// SubscriberDrops counts subscribers disconnected by the bounded-lag
	// slow-subscriber policy (they resume from their applied LSN).
	SubscriberDrops int64 `metric:"sias_server_subscriber_drops_total,counter" help:"Subscribers disconnected by the bounded-lag slow-subscriber policy."`
}

// Server serves the wire protocol over TCP.
type Server struct {
	cfg    Config
	valCol int
	sem    chan struct{}

	// draining is written under mu (Serve and Shutdown decide on it together
	// with ln and sessions) and read without it on every request.
	draining atomic.Bool

	mu           sync.Mutex
	ln           net.Listener
	sessions     map[*session]struct{}
	subs         map[*session]*subscriber // sessions that became replication streams
	killed       bool
	failoverAddr string // last announced follower; fallback when no stream is live
	designated   string // successor latched by Shutdown, shipped at end-of-stream

	// drainedCh closes after Shutdown's checkpoint: subscribers ship the
	// final log tail (which the checkpoint made durable) and end the stream.
	drainedCh chan struct{}

	wg sync.WaitGroup

	conns         atomic.Int64
	requests      atomic.Int64
	overloaded    atomic.Int64
	drainRejected atomic.Int64
	openTxns      atomic.Int64
	inflight      atomic.Int64 // requests read but not yet fully answered
	subDrops      atomic.Int64 // subscribers cut by the slow-subscriber policy

	// Observability (nil/zero when Config.Obs is unset): per-op latency
	// histograms indexed by wire op code, and the slow-op log. timeOps
	// gates the time.Now pair in the request loop.
	opHist  [wire.NumOps]*obs.Histogram
	slow    *obs.SlowOpLog
	timeOps bool
	tracer  *obs.Tracer
}

// New validates cfg and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Router == nil {
		return nil, errors.New("server: Router is required")
	}
	tab := cfg.Router.Table()
	sch := tab.Schema()
	if len(sch.Cols) != 2 {
		return nil, fmt.Errorf("server: table %s must have exactly key+value columns", tab.Name())
	}
	valCol := -1
	for i, c := range sch.Cols {
		if c.Type == tuple.TypeBytes {
			valCol = i
		}
	}
	if valCol < 0 {
		return nil, fmt.Errorf("server: table %s has no bytes value column", tab.Name())
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	s := &Server{
		cfg:       cfg,
		valCol:    valCol,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		sessions:  map[*session]struct{}{},
		subs:      map[*session]*subscriber{},
		drainedCh: make(chan struct{}),
	}
	s.tracer = cfg.Tracer
	if s.tracer != nil {
		cfg.Router.SetTracer(s.tracer)
	}
	if cfg.Obs != nil {
		s.setupMetrics(cfg.Obs, cfg.SlowOps)
		s.timeOps = true
	}
	return s, nil
}

// Stats snapshots the service-layer counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	subs := int64(len(s.subs))
	s.mu.Unlock()
	return Stats{
		Connections:     s.conns.Load(),
		Requests:        s.requests.Load(),
		Overloaded:      s.overloaded.Load(),
		DrainRejected:   s.drainRejected.Load(),
		OpenTxns:        s.openTxns.Load(),
		Subscribers:     subs,
		SubscriberDrops: s.subDrops.Load(),
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. It returns nil
// after a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return wire.ErrShuttingDown
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.conns.Add(1)
		sess := &session{
			srv:  s,
			conn: conn,
			br:   bufio.NewReader(conn),
			bw:   bufio.NewWriter(conn),
			txs:  map[uint64]*shard.Txn{},
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			delete(s.subs, sess)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the server: it stops accepting, lets sessions finish
// their in-flight transactions, then aborts stragglers once ctx expires (5s
// when ctx has no deadline), force-closes their connections, and checkpoints
// the shards so a restart recovers quickly. Requests that arrive during the
// drain are answered with wire.CodeShuttingDown — never silently dropped.
//
// The checkpoint goes through shard.Router.Checkpoint, which flushes one
// shard at a time: only one shard's maintenance lock is held at any moment,
// so a slow flush on one shard never stalls commits still completing on the
// others during the drain window.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, drainTimeout)
		defer cancel()
	}

	// Phase 1: wait for in-flight work to finish on its own. Draining
	// sessions refuse BEGIN (typed wire.CodeShuttingDown) but complete ops
	// on already-open transactions, so the open-transaction and in-flight
	// request counts fall to zero as clients observe the drain.
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
wait:
	for s.openTxns.Load() > 0 || s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			break wait // deadline: abort stragglers below
		case <-tick.C:
		}
	}

	// Handoff linger: when a follower is announced, severed connections would
	// lose the failover address — so keep sessions alive and keep answering
	// their BEGINs with the typed "failover=" rejection until every regular
	// connection has hung up (a redirected client closes its pooled
	// connections) or the deadline expires.
	if s.followerAddr() != "" {
	linger:
		for s.regularSessions() > 0 {
			select {
			case <-ctx.Done():
				break linger
			case <-tick.C:
			}
		}
	}

	// Phase 2: force-close every regular connection. Stragglers that still
	// hold a transaction past the deadline are aborted by their session's
	// exit path; idle connections just hang up. Sessions mid-answer flush
	// what they can — the client sees a typed error or a broken connection
	// for that request, never a silent half-commit (the transaction either
	// committed durably before its ack or is aborted here). Replication
	// subscribers stay connected: they get the checkpointed log tail below.
	s.mu.Lock()
	for sess := range s.sessions {
		if _, isSub := s.subs[sess]; !isSub {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()
	for s.regularSessions() > 0 {
		<-tick.C // sessions exit promptly once their connections close
	}

	// All writers are gone; checkpoint so the final commits' WAL pages are
	// durable, then release the subscribers to ship the tail and end their
	// streams with a typed SHUTTING_DOWN frame — the follower's cue to
	// promote itself.
	err := s.cfg.Router.Checkpoint()
	// Designate the failover successor once, before releasing the
	// subscribers: every stream's end-of-stream frame must name the same
	// follower, or two could promote themselves (split brain).
	designated := s.followerAddr()
	s.mu.Lock()
	s.designated = designated
	s.mu.Unlock()
	close(s.drainedCh)
	s.wg.Wait()
	return err
}

// regularSessions counts the live sessions that are not replication streams
// (every subscriber is a session: both maps lose it in the same step).
func (s *Server) regularSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions) - len(s.subs)
}

// Kill force-closes the server without drain or checkpoint, simulating a
// crash for failover tests: the listener and every connection (including
// replication subscribers) drop immediately, and the WAL keeps only what
// commits already flushed.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return
	}
	s.draining.Store(true)
	s.killed = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
	close(s.drainedCh)
	s.wg.Wait()
}

// session is one connection's state: a request loop plus the transactions
// opened over this connection, keyed by wire handle. Each transaction fans
// out into per-shard sub-transactions inside shard.Txn.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	txs        map[uint64]*shard.Txn
	nextHandle uint64 // handles start at 1: 0 is never issued
	lastBegun  uint64 // what handle 0 resolves to; 0 = nothing (see handle)

	// in holds the request being served and out the reply being built. Both
	// are reused from one request to the next, so a request payload is valid
	// only until its reply is written: a handler copies what it keeps.
	in  []byte
	out wire.Buf
}

// maxSessionBuf caps the buffers a session keeps between requests. A larger
// request or reply (a big scan) gets its buffer to itself, dropped once the
// reply is written, so an idle connection pins at most this much in each.
const maxSessionBuf = 1 << 20

// reply hands out the session's reply buffer, emptied. What a handler builds
// in it is valid until the next call.
func (c *session) reply() *wire.Buf {
	c.out.B = c.out.B[:0]
	return &c.out
}

// writeErr answers with an error frame carrying msg.
func (c *session) writeErr(code wire.Code, msg string) error {
	b := c.reply()
	b.B = append(b.B, msg...)
	return wire.WriteFrame(c.bw, uint8(code), b.B)
}

func (c *session) run() {
	defer func() {
		// Roll back whatever the client left open, then hang up.
		for h, tx := range c.txs {
			tx.Abort()
			c.srv.openTxns.Add(-1)
			delete(c.txs, h)
		}
		c.bw.Flush()
		c.conn.Close()
	}()

	for {
		rawOp, payload, err := wire.ReadFrame(c.br, c.in)
		if err != nil {
			return // EOF, client went away, or force-closed during drain
		}
		c.in = payload
		op := wire.Op(rawOp)
		// Unwrap the trace envelope before anything looks at the op: the
		// inner op drives the subscribe switch, admission, histograms and
		// the slow-op log exactly as if it had arrived bare; only the span
		// context is peeled off.
		var tc obs.SpanContext
		if op == wire.OpTrace {
			traceID, parentSpan, sampled, inner, innerPayload, derr := wire.DecodeTraceEnvelope(payload)
			if derr != nil {
				c.lastBegun = 0 // the frame inside may have been a BEGIN
				msg := fmt.Sprintf("bad request: malformed TRACE envelope: %v", derr)
				if c.writeErr(wire.CodeBadRequest, msg) != nil || c.bw.Flush() != nil {
					return
				}
				continue
			}
			op, payload = inner, innerPayload
			if sampled && traceID != 0 {
				tc = obs.SpanContext{TraceID: traceID, SpanID: parentSpan, Sampled: true}
			}
		}
		if op == wire.OpSubscribe {
			// The connection becomes a one-way log stream; it speaks no
			// further request frames and never returns to this loop.
			c.runSubscriber(payload)
			return
		}
		if c.serve(op, payload, tc) != nil {
			return
		}
	}
}

// serve executes one request and writes its reply. Afterwards the request
// payload is dead, and a request or reply buffer grown past maxSessionBuf is
// dropped.
func (c *session) serve(op wire.Op, payload []byte, tc obs.SpanContext) error {
	c.srv.inflight.Add(1)
	defer c.srv.inflight.Add(-1)
	var t0 time.Time
	if c.srv.timeOps || c.srv.tracer != nil {
		t0 = time.Now()
	}
	// Op span: continue a carried trace, or head-sample a bare data op
	// server-side.
	var sp *obs.Span
	if c.srv.tracer != nil && traced(op.Kind()) {
		if !tc.Sampled && c.srv.tracer.Sample() {
			tc = c.srv.tracer.NewContext()
		}
		sp = c.srv.tracer.StartSpanAt(tc, op.String(), t0)
	}
	resp, herr := c.handle(op, payload, sp)
	if sp != nil {
		if herr != nil {
			sp.Annotate("error", herr.Error())
		}
		// Finished (and counted) before the reply hits the wire, so a
		// scrape after the client observes the ack sees the span.
		sp.Finish()
	}
	if c.srv.timeOps {
		c.srv.observeOp(op, payload, sp, t0, time.Since(t0))
	}
	var err error
	if herr != nil {
		err = c.writeErr(wire.CodeOf(herr), herr.Error())
	} else {
		err = wire.WriteFrame(c.bw, uint8(wire.CodeOK), resp)
	}
	if cap(c.in) > maxSessionBuf {
		c.in = nil
	}
	if cap(c.out.B) > maxSessionBuf {
		c.out.B = nil
	}
	if err != nil {
		return err
	}
	// Pipelining-aware flush: only force bytes out when no further request
	// is already buffered.
	if c.br.Buffered() == 0 {
		return c.bw.Flush()
	}
	return nil
}

// followerAddr reports the best failover target: among live announced
// subscribers, the one whose shipped position trails the durable logs the
// least (ties go to the most recent subscription — a fresh stream that
// already caught up beats one that merely got there first). When no announced
// stream is live, the last announced address is the fallback, so a drain that
// races a follower reconnect still hands clients somewhere.
func (s *Server) followerAddr() string {
	n := s.cfg.Router.N()
	durables := make([]uint64, n)
	for i := 0; i < n; i++ {
		durables[i] = uint64(s.cfg.Router.Shard(i).Facade.DB().WAL().Durable())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best := ""
	var bestLag uint64
	var bestSince time.Time
	for _, sub := range s.subs {
		if sub.announce == "" {
			continue
		}
		var lag uint64
		for i := 0; i < n; i++ {
			if sent := sub.sent[i].Load(); durables[i] > sent {
				lag += durables[i] - sent
			}
		}
		if best == "" || lag < bestLag || (lag == bestLag && sub.since.After(bestSince)) {
			best, bestLag, bestSince = sub.announce, lag, sub.since
		}
	}
	if best != "" {
		return best
	}
	return s.failoverAddr
}

// send writes one stream frame and flushes it under the subscriberStall write
// deadline. A missed deadline is the slow-subscriber cut: the peer stopped
// reading, so it is counted, and the session hangs up once send fails.
func (c *session) send(tag uint8, payload []byte) error {
	c.conn.SetWriteDeadline(time.Now().Add(subscriberStall))
	err := wire.WriteFrame(c.bw, tag, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.srv.subDrops.Add(1)
	}
	return err
}

// replyErr sends a typed error frame (stream setup failures).
func (c *session) replyErr(err error) {
	_ = c.send(uint8(wire.CodeOf(err)), []byte(err.Error()))
}

// subscriber is the server-side state of one replication stream: identity
// for failover designation and per-shard shipped cursors for lag accounting.
type subscriber struct {
	peer     string // announce address, or remote address when not announced
	announce string
	since    time.Time
	sent     []atomic.Uint64 // per-shard LSN shipped to the socket
}

// runSubscriber services one SUBSCRIBE for the rest of the connection's
// life: handshake with the current durable LSNs, then ship LOGBATCH frames
// as the logs grow, heartbeat while idle, and end the stream with a typed
// SHUTTING_DOWN frame (carrying the designated successor's address) once the
// drain checkpoint has run and every cursor has caught up. The subscriber
// reads flushed WAL pages only (never past the durable LSN), so no writer
// coordination is needed beyond the LSN load.
//
// The stream is one loop on the session goroutine: read a shard's durable
// tail, write it, advance that shard's cursor. Every write goes through send,
// whose deadline is the bounded-lag policy, so a peer that stops reading
// cannot wedge the loop or a drain.
func (c *session) runSubscriber(payload []byte) {
	srv := c.srv
	r := wire.Reader{B: payload}
	announce, err1 := r.Bytes()
	n, err2 := r.U32()
	if err1 != nil || err2 != nil {
		c.replyErr(fmt.Errorf("%w: malformed SUBSCRIBE", wire.ErrBadRequest))
		return
	}
	if int(n) != srv.cfg.Router.N() {
		c.replyErr(fmt.Errorf("%w: SUBSCRIBE for %d shards, server has %d", wire.ErrBadRequest, n, srv.cfg.Router.N()))
		return
	}
	sub := &subscriber{
		peer:     c.conn.RemoteAddr().String(),
		announce: string(announce),
		since:    time.Now(),
		sent:     make([]atomic.Uint64, n),
	}
	for i := range sub.sent {
		v, err := r.U64()
		if err != nil {
			c.replyErr(fmt.Errorf("%w: malformed SUBSCRIBE cursors", wire.ErrBadRequest))
			return
		}
		sub.sent[i].Store(v)
	}
	if sub.announce != "" {
		sub.peer = sub.announce
	}
	srv.mu.Lock()
	if sub.announce != "" {
		srv.failoverAddr = sub.announce
	}
	srv.subs[c] = sub
	srv.mu.Unlock()

	b := c.reply()
	b.U32(n)
	for i := 0; i < int(n); i++ {
		b.U64(uint64(srv.cfg.Router.Shard(i).Facade.DB().WAL().Durable()))
	}
	if c.send(uint8(wire.CodeOK), b.B) != nil {
		return
	}

	// frame sends one LOGBATCH frame for shard i: data starting at from,
	// against the shard's durable LSN (empty data is a heartbeat).
	frame := func(i int, from, durable wal.LSN, data []byte) error {
		b := c.reply()
		b.U32(uint32(i))
		b.U64(uint64(from))
		b.U64(uint64(durable))
		b.Bytes(data)
		return c.send(uint8(wire.CodeLogBatch), b.B)
	}

	// The poll interval bounds replica freshness between batches, which in
	// turn bounds how often LSN-gated read routing can use a replica under a
	// write-heavy mix — keep it tight.
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	lastShip := time.Now()
	for {
		progressed := false
		caughtUp := true
		for i := 0; i < int(n); i++ {
			db := srv.cfg.Router.Shard(i).Facade.DB()
			from := wal.LSN(sub.sent[i].Load())
			durable := db.WAL().Durable()
			if durable > from {
				data, err := wal.ReadBatch(db.WALDevice(), from, durable, 0)
				if err != nil || frame(i, from, durable, data) != nil {
					return
				}
				from += wal.LSN(len(data))
				sub.sent[i].Store(uint64(from))
				progressed = true
			}
			if db.WAL().Durable() > from {
				caughtUp = false
			}
		}
		if progressed {
			lastShip = time.Now()
			continue
		}
		select {
		case <-srv.drainedCh:
			if caughtUp {
				srv.mu.Lock()
				killed := srv.killed
				successor := srv.designated
				srv.mu.Unlock()
				if !killed {
					// End-of-stream: the payload names the designated
					// successor (empty when none was announced). The matching
					// follower promotes itself; every other follower repoints
					// there and resubscribes. This goroutine wrote every
					// batch before it, so the frame cannot overtake them.
					_ = c.send(uint8(wire.CodeShuttingDown), []byte(successor))
				}
				return
			}
		default:
		}
		if time.Since(lastShip) >= 200*time.Millisecond {
			for i := 0; i < int(n); i++ {
				durable := srv.cfg.Router.Shard(i).Facade.DB().WAL().Durable()
				if frame(i, wal.LSN(sub.sent[i].Load()), durable, nil) != nil {
					return
				}
			}
			lastShip = time.Now()
		}
		<-poll.C
	}
}

// admit acquires an in-flight slot without blocking.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.overloaded.Add(1)
		return false
	}
}

// traced reports whether ops of kind k get a trace span: every op the
// protocol declares except the meta ops (see wire.KindMeta for why).
func traced(k wire.Kind) bool { return k != wire.KindUnknown && k != wire.KindMeta }

// handle gates one request by its kind — admission, drain, follower — and
// then dispatches it by opcode. The switch at the bottom is the only place
// in the server that names individual ops.
func (c *session) handle(op wire.Op, payload []byte, sp *obs.Span) ([]byte, error) {
	srv := c.srv
	kind := op.Kind()
	if kind == wire.KindUnknown {
		// ERR_BAD_OP (wire.CodeBadOp) on the same connection — a protocol
		// error, never a dropped session.
		return nil, fmt.Errorf("%w: %s", wire.ErrBadRequest, op)
	}
	// Handle 0 names the transaction of the most recent BEGIN on this
	// connection. Forgetting it as soon as the next BEGIN arrives — before
	// drain or admission can refuse that BEGIN — is what keeps an operation
	// pipelined behind a refused BEGIN out of an older transaction.
	if kind == wire.KindBegin {
		c.lastBegun = 0
	}
	if kind != wire.KindMeta { // meta ops pass every gate: see wire.KindMeta
		// Drain refuses new work: transactions and auto-commit DDL. Ops on
		// already-open transactions complete during the drain window.
		if (kind == wire.KindBegin || kind == wire.KindDDL) && srv.draining.Load() {
			srv.drainRejected.Add(1)
			if addr := srv.followerAddr(); addr != "" {
				// Drain handoff: tell the client where to go instead.
				return nil, fmt.Errorf("%w; failover=%s", wire.ErrShuttingDown, addr)
			}
			return nil, wire.ErrShuttingDown
		}
		// Ending a transaction releases the locks and snapshot admission
		// protects the server from, so COMMIT and ABORT take no slot: a
		// refused one would leave its transaction open on a pooled connection.
		if kind != wire.KindEnd {
			if !srv.admit() {
				return nil, wire.ErrOverloaded
			}
			defer func() { <-srv.sem }()
		}
		srv.requests.Add(1)

		// Follower gating: before promotion, writes are rejected outright,
		// an op that takes a new view of the data (a BEGIN, a control read)
		// first folds everything applied so far into the read snapshot, and
		// every op excludes concurrent replay (shared lock; replay holds it
		// exclusively batch by batch).
		if rep := srv.cfg.Replica; rep != nil && !rep.Promoted() {
			switch kind {
			case wire.KindWrite, wire.KindDDL:
				return nil, engine.ErrReadOnly
			case wire.KindBegin, wire.KindControl:
				if err := rep.Refresh(); err != nil {
					return nil, err
				}
			}
			rep.DataRLock()
			defer rep.DataRUnlock()
		}
	}

	r := wire.Reader{B: payload}
	var h uint64
	var tx *shard.Txn
	if op.Shape() != wire.ShapeNone {
		var err error
		if h, tx, err = c.lookup(&r); err != nil {
			return nil, err
		}
	}
	switch op {
	case wire.OpStats:
		return c.handleStats()

	case wire.OpReplLSN:
		return c.handleReplLSN()

	case wire.OpPromote:
		if srv.cfg.Replica == nil {
			return nil, fmt.Errorf("%w: PROMOTE on a non-follower", wire.ErrBadRequest)
		}
		return nil, srv.cfg.Replica.Promote()

	case wire.OpBegin:
		return c.open(srv.cfg.Router.Begin()), nil

	case wire.OpCommit, wire.OpAbort:
		delete(c.txs, h)
		srv.openTxns.Add(-1)
		if op == wire.OpCommit {
			// Hand the op span's context to the router so the commit path
			// (route/2PC phases/group-commit stages) records child spans.
			tx.SetTrace(sp.Context())
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			// The reply carries, per shard, the durable LSN at ack time or
			// the end of an outcome record this transaction left for a later
			// flush, whichever lies further — an upper bound on everything it
			// wrote, which is what lets the client route later reads to
			// replicas without losing read-your-writes.
			return c.lsnVector(tx), nil
		}
		return nil, tx.Abort()

	case wire.OpGet:
		key, _, err := keyArgs(&r, false)
		if err != nil {
			return nil, err
		}
		row, err := tx.Get(key)
		if err != nil {
			return nil, err
		}
		val, _ := row[srv.valCol].([]byte)
		b := c.reply()
		b.Bytes(val)
		return b.B, nil

	case wire.OpInsert:
		key, val, err := keyArgs(&r, true)
		if err != nil {
			return nil, err
		}
		return nil, tx.Insert(c.row(key, val))

	case wire.OpUpdate:
		key, val, err := keyArgs(&r, true)
		if err != nil {
			return nil, err
		}
		return nil, tx.Update(key, func(row tuple.Row) (tuple.Row, error) {
			out := append(tuple.Row(nil), row...)
			out[srv.valCol] = append([]byte(nil), val...)
			return out, nil
		})

	case wire.OpDelete:
		key, _, err := keyArgs(&r, false)
		if err != nil {
			return nil, err
		}
		return nil, tx.Delete(key)

	case wire.OpScan:
		lo, hi, limit, err := rangeArgs(&r)
		if err != nil {
			return nil, err
		}
		entries := c.countedReply()
		count := uint32(0)
		err = tx.Range(lo, hi, func(row tuple.Row) bool {
			k, _ := row[1-srv.valCol].(int64)
			v, _ := row[srv.valCol].([]byte)
			entries.I64(k)
			entries.Bytes(v)
			count++
			return limit == 0 || count < limit
		})
		if err != nil {
			return nil, err
		}
		return counted(count, entries), nil

	case wire.OpSnapshot:
		return c.handleSnapshot()

	case wire.OpBeginAt:
		return c.handleBeginAt(&r)

	case wire.OpCreateTable, wire.OpDropTable, wire.OpCreateIndex, wire.OpDropIndex:
		return c.handleDDL(op, &r)

	case wire.OpInsertRow, wire.OpGetRow, wire.OpUpdateRow, wire.OpDeleteRow,
		wire.OpScanTable, wire.OpIndexRange:
		return c.handleRowOp(op, tx, &r)

	case wire.OpListTables:
		return c.handleListTables()
	}
	// A declared op with no case: SUBSCRIBE and TRACE are peeled off by the
	// request loop, so here they can only have arrived inside a TRACE
	// envelope's envelope.
	return nil, fmt.Errorf("%w: %s", wire.ErrBadRequest, op)
}

// lsnVector encodes the per-shard durable WAL positions, each raised to the
// end of the outcome record committed left unflushed on that shard (nil: no
// transaction).
func (c *session) lsnVector(committed *shard.Txn) []byte {
	n := c.srv.cfg.Router.N()
	b := c.reply()
	b.U32(uint32(n))
	for i := 0; i < n; i++ {
		lsn := c.srv.cfg.Router.Shard(i).Facade.DB().WAL().Durable()
		if committed != nil {
			lsn = max(lsn, committed.OutcomeLSN(i))
		}
		b.U64(uint64(lsn))
	}
	return b.B
}

// handleReplLSN answers the REPL_LSN probe: the LSN vector reads on this
// server are guaranteed to observe — the replication applied positions while
// an unpromoted follower, the durable log positions otherwise.
func (c *session) handleReplLSN() ([]byte, error) {
	if rep := c.srv.cfg.Replica; rep != nil && !rep.Promoted() {
		applied := rep.AppliedLSNs()
		b := c.reply()
		b.U32(uint32(len(applied)))
		for _, l := range applied {
			b.U64(l)
		}
		return b.B, nil
	}
	return c.lsnVector(nil), nil
}

// open registers tx under a fresh handle — from now on also what handle 0
// names — and encodes the BEGIN/BEGIN_AT reply.
func (c *session) open(tx *shard.Txn) []byte {
	c.nextHandle++
	c.lastBegun = c.nextHandle
	c.txs[c.nextHandle] = tx
	c.srv.openTxns.Add(1)
	b := c.reply()
	b.U64(c.nextHandle)
	return b.B
}

// lookup decodes a handle and resolves it to a live transaction and the
// handle it is registered under. Handle 0 stands for the most recent BEGIN
// of this connection; with none, or once that transaction has finished, it
// is unknown like any other stale handle.
func (c *session) lookup(r *wire.Reader) (uint64, *shard.Txn, error) {
	h, err := r.U64()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	if h == 0 {
		h = c.lastBegun
	}
	tx, ok := c.txs[h]
	if !ok {
		return 0, nil, wire.ErrUnknownTx
	}
	return h, tx, nil
}

// keyArgs decodes the (key[, val]) that follows the handle of a kv request.
func keyArgs(r *wire.Reader, withVal bool) (key int64, val []byte, err error) {
	if key, err = r.I64(); err == nil && withVal {
		val, err = r.Bytes()
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	return key, val, nil
}

// rangeArgs decodes the (lo, hi, limit) tail every range request ends with.
func rangeArgs(r *wire.Reader) (lo, hi int64, limit uint32, err error) {
	lo, err1 := r.I64()
	hi, err2 := r.I64()
	limit, err3 := r.U32()
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, wire.ErrBadRequest
	}
	return lo, hi, limit, nil
}

// countedReply starts a range reply in the reply buffer: the entry count goes
// first, so its four bytes are reserved before the entries and filled in by
// counted.
func (c *session) countedReply() *wire.Buf {
	b := c.reply()
	b.U32(0)
	return b
}

// counted finishes a range reply countedReply started: it writes the entry
// count into the reserved bytes.
func counted(count uint32, entries *wire.Buf) []byte {
	binary.LittleEndian.PutUint32(entries.B, count)
	return entries.B
}

// row assembles a table row for key/val in schema column order.
func (c *session) row(key int64, val []byte) tuple.Row {
	row := make(tuple.Row, 2)
	row[1-c.srv.valCol] = key
	row[c.srv.valCol] = append([]byte(nil), val...)
	return row
}

// StatsReply is the JSON payload of a STATS response. Engine aggregates
// the per-shard counters; Shards carries them individually in shard order
// so load generators can report group-commit effectiveness per shard.
// /metrics is a walk of this same struct (metrics.go): Engine is left out
// of it because it is derived from Shards.
type StatsReply struct {
	Engine engine.Stats      `json:"engine" metric:"-"`
	Server Stats             `json:"server"`
	Router shard.RouterStats `json:"router"`
	Shards []engine.Stats    `json:"shards" label:"shard"`
	// Repl is present only on a replication follower: per-shard applied vs
	// primary-durable LSNs plus the promotion flag.
	Repl *repl.Stats `json:"repl,omitempty"`
	// Ops summarizes server-side latency per wire op, read from the same
	// histograms /metrics exposes. Present only when metrics are wired.
	Ops map[string]OpLatency `json:"ops,omitempty"`
	// Trace reports the distributed tracer's counters, matching the
	// sias_trace_* metric families. Present only when tracing is wired.
	Trace *TraceStats `json:"trace,omitempty"`
}

// TraceStats mirrors the tracer's counters into the STATS reply.
type TraceStats struct {
	Spans int64 `json:"spans" metric:"sias_trace_spans_total,counter" help:"Distributed trace spans recorded (sampled or force-kept)."`
}

// snapshot reads every stats source once: the part of a STATS reply that a
// /metrics scrape shares with it.
func (s *Server) snapshot() StatsReply {
	reply := StatsReply{
		Server: s.Stats(),
		Router: s.cfg.Router.RouterStats(),
		Shards: s.cfg.Router.Stats(),
	}
	if s.cfg.Replica != nil {
		rs := s.cfg.Replica.Stats()
		reply.Repl = &rs
	}
	if t := s.tracer; t != nil {
		reply.Trace = &TraceStats{Spans: t.Spans()}
	}
	return reply
}

func (c *session) handleStats() ([]byte, error) {
	reply := c.srv.snapshot()
	reply.Engine = shard.Aggregate(reply.Shards)
	reply.Ops = c.srv.opLatencies()
	return json.Marshal(reply)
}
