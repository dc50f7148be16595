// Package client is the Go client for the SIAS wire protocol
// (internal/wire, served by internal/server).
//
// A Client owns a pool of TCP connections, keyed by server address.
// Transactions are pinned to one pooled connection from their first
// operation on — wire handles are scoped to the connection that issued them
// — and the connection returns to the pool on Commit/Abort. Admission-control
// rejections (wire.ErrOverloaded) are retried transparently with exponential
// backoff and full jitter: the server rejects before executing, so retrying
// any op is safe.
//
// Begin sends nothing. The BEGIN frame travels in front of the transaction's
// first operation, in the same write, and the operation names its
// transaction as handle 0 — "the BEGIN just before me" (see Tx.first). The
// snapshot is the first operation's, as it always was (the server opens a
// shard's sub-transaction on first touch), and whatever the server has to
// say about starting a transaction — a drain refusal or redirect, no
// reachable primary — is said to the first operation, not to Begin. A
// transaction that is finished without an operation never reaches the
// server.
//
// A transaction that sent no write ends without waiting. Under SI its reads
// were decided by its snapshot and its COMMIT validates nothing, so Commit
// and Abort only buffer the end frame, return nil and put the connection back
// in the pool owing one reply. The frame leaves in the same write as the
// connection's next request, whose first read drops the owed reply; a
// connection that sits idle flushes it after lazyEndDelay, so it never pins a
// snapshot for long. A transaction that sent a write waits for its reply, as
// the outcome — and an in-doubt one — is the caller's to know.
//
// An insert does not wait for its reply either. Under SI an insert takes a
// fresh item no other transaction can hold, and the engine checks no unique
// key, so its reply can only say "ok" or report a failure that dooms the
// transaction. Once the transaction's first operation has been answered,
// Insert and InsertRow only buffer their frame and return nil; the frame
// leaves when the buffer fills or with the next call that needs a reply, and
// the transaction settles its inserts — reads their replies in order — before
// any operation that waits, before COMMIT and ABORT, and once maxAhead
// inserts or maxAheadBytes of their payloads are outstanding. An insert that
// admission control refused is sent again alone. Any other failure of an
// insert is returned by the next call that waits, or by Commit, which then
// ends the transaction with ABORT instead; a connection lost with inserts
// unanswered fails Commit with the transport error, not ErrInDoubt, as no
// COMMIT was sent.
//
// When Options.Replicas names read-only followers, BeginRead routes
// read-only transactions to them round-robin — but only to a replica whose
// advertised applied-LSN vector (the REPL_LSN probe) covers everything this
// client has committed, so a session always reads its own writes; anything
// lagging behind the session falls back to the primary.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/engine"
	"sias/internal/server"
	"sias/internal/tuple"
	"sias/internal/wire"
)

// ErrInDoubt is returned by Commit when the outcome is unknown: the
// connection died after the commit request may have reached the server but
// before its outcome came back, or the server answered IN_DOUBT (the
// coordinator's commit-decision flush failed and may still have left the
// decision on the device). The transaction may have committed — for a
// cross-shard transaction, the coordinator may have logged its decision right
// as the connection dropped — so the caller must NOT assume failure: re-read
// the written keys on a fresh connection to learn the outcome (recovery and
// 2PC resolution guarantee the server converges on exactly one of
// committed-everywhere or aborted-everywhere). Only transactions that
// performed a write can be in-doubt; a read-only commit that loses its
// connection has no durable effect either way.
var ErrInDoubt = errors.New("client: commit outcome unknown")

// ErrNoPrimary is returned by a transaction's first operation once the
// bounded failover-retry budget is exhausted without reaching a server that
// accepts new transactions.
var ErrNoPrimary = errors.New("client: no reachable primary")

// errBroken is what a request on a connection that an earlier transport
// failure broke returns: nothing was sent.
var errBroken = errors.New("client: connection is broken")

// Options configures Dial. The zero value gets sensible defaults.
type Options struct {
	// PoolSize caps idle pooled connections per server address (default 4).
	PoolSize int
	// Replicas are read-only follower addresses eligible to serve BeginRead
	// transactions. Optional; with none, BeginRead runs on the primary.
	Replicas []string
	// TraceSample is the fraction of Begin transactions traced end to end
	// (0 = never, 1 = always). A sampled transaction's BEGIN and COMMIT ride
	// in TRACE envelopes carrying a client-generated trace id, so the
	// server's spans — routing, 2PC phases, group-commit flushes, follower
	// apply — stitch into one trace. A server that refuses the TRACE-wrapped
	// BEGIN (BAD_REQUEST) fails the transaction: there is no untraced retry.
	TraceSample float64
}

// Client is a pooled connection to one primary (plus optional read replicas).
type Client struct {
	addr string
	opts Options

	mu         sync.Mutex
	idle       map[string][]*conn // pooled connections, by server address
	closed     bool
	schemas    map[string]*tuple.Schema // typed-row codec cache, by table name
	lastCommit []uint64                 // per-shard durable LSN floor for read-your-writes
	rrNext     int                      // round-robin cursor over Replicas

	primaryReads atomic.Int64 // BeginRead transactions served by the primary
	replicaReads atomic.Int64 // BeginRead transactions served by a replica
}

// lazyEndDelay is how long the end of a write-free transaction may wait in
// an idle pooled connection's buffer for a request to carry it before the
// connection flushes it alone: the same bound as a participant's lazy outcome
// flush.
const lazyEndDelay = time.Millisecond

// dialTimeout bounds connection establishment.
const dialTimeout = 3 * time.Second

// maxRetries bounds the retries of an operation refused as overloaded (it is
// sent at most maxRetries+1 times) and the reconnects of one transaction
// start. retryBase is the first backoff delay; it doubles per retry with full
// jitter, capped at 64x.
const (
	maxRetries = 6
	retryBase  = 2 * time.Millisecond
)

// maxRedirects caps how many failover redirects one transaction start chases
// before surfacing ErrNoPrimary.
const maxRedirects = 4

// maxAhead and maxAheadBytes bound the inserts a transaction has sent without
// reading their replies: what the client holds for a re-send, and how many
// replies the server queues toward a client that is not reading.
const (
	maxAhead      = 64
	maxAheadBytes = 1 << 20
)

// A conn is owned — by a transaction or a one-off call — from get to put, and
// mu is held for exactly that span. The lazy-end timer only TryLocks it: it
// never writes under an owner, whose next write carries the end anyway, and
// it never takes the connection out of the pool.
type conn struct {
	mu     sync.Mutex
	addr   string
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	broken bool
	// owed counts replies to ends sent without waiting (Tx.finish); recv
	// reads and drops them before its own.
	owed int
	// flushTimer puts a buffered end on the wire once the connection has
	// sat idle for lazyEndDelay; put arms it.
	flushTimer *time.Timer
}

// Dial connects to addr, verifying reachability with one eager connection.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	c := &Client{addr: addr, opts: opts, idle: make(map[string][]*conn)}
	cn, err := c.dialAddr(addr)
	if err != nil {
		return nil, err
	}
	c.put(cn)
	return c, nil
}

// Close tears down the idle pool. In-flight transactions keep their pinned
// connections until they finish.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, cns := range idle {
		for _, cn := range cns {
			cn.mu.Lock()
			cn.close()
		}
	}
	return nil
}

// dialAddr opens a connection to addr, owned by the caller.
func (c *Client) dialAddr(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &conn{addr: addr, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	cn.mu.Lock()
	return cn, nil
}

// close flushes a buffered end, so that the server finishes that
// transaction rather than aborting it with the session, and hangs up. The
// caller owns cn and never gives it back.
func (cn *conn) close() {
	if cn.flushTimer != nil {
		cn.flushTimer.Stop()
	}
	if !cn.broken && cn.bw.Buffered() > 0 {
		cn.flush()
	}
	cn.nc.Close()
}

// lazyFlush is the flush timer's body: it puts a buffered end on the wire
// unless someone owns the connection, in which case their next write will.
func (cn *conn) lazyFlush() {
	if !cn.mu.TryLock() {
		return
	}
	if !cn.broken && cn.bw.Buffered() > 0 {
		cn.flush()
	}
	cn.mu.Unlock()
}

// Addr reports the server address the client currently targets; it changes
// when a draining primary hands the client off to its follower.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// redirect repoints the client at addr (a drain handoff target) and drops
// idle connections to the old server. In-flight transactions keep their
// pinned connections; they fail individually and the caller retries.
func (c *Client) redirect(addr string) {
	c.mu.Lock()
	if c.addr == addr {
		c.mu.Unlock()
		return
	}
	old := c.addr
	c.addr = addr
	var stale []*conn
	if c.idle != nil {
		stale = c.idle[old]
		delete(c.idle, old)
	}
	c.mu.Unlock()
	for _, cn := range stale {
		cn.mu.Lock()
		cn.close()
	}
}

// get pops an idle connection to the current primary or dials a new one.
func (c *Client) get() (*conn, error) {
	return c.getAt(c.Addr())
}

// getAt pops an idle connection to addr or dials a new one; either way the
// caller owns it until put.
func (c *Client) getAt(addr string) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("client: closed")
	}
	if pool := c.idle[addr]; len(pool) > 0 {
		cn := pool[len(pool)-1]
		c.idle[addr] = pool[:len(pool)-1]
		c.mu.Unlock()
		cn.mu.Lock() // at most waits out a lazy flush
		if cn.flushTimer != nil {
			cn.flushTimer.Stop() // this owner's next write carries a buffered end
		}
		return cn, nil
	}
	c.mu.Unlock()
	return c.dialAddr(addr)
}

// put gives up ownership of a connection: a healthy one goes back to its
// address pool, with its flush timer armed if an end is still buffered; any
// other is closed.
func (c *Client) put(cn *conn) {
	if cn == nil {
		return
	}
	c.mu.Lock()
	if !cn.broken && !c.closed && len(c.idle[cn.addr]) < c.opts.PoolSize {
		if cn.bw.Buffered() > 0 {
			if cn.flushTimer == nil {
				cn.flushTimer = time.AfterFunc(lazyEndDelay, cn.lazyFlush)
			} else {
				cn.flushTimer.Reset(lazyEndDelay)
			}
		}
		c.idle[cn.addr] = append(c.idle[cn.addr], cn)
		c.mu.Unlock()
		cn.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cn.close()
}

// send buffers one request frame; flush puts it on the wire. A nonzero
// traceID wraps the frame in an OpTrace envelope so the server continues the
// client's trace. Transport failures mark the connection broken.
func (cn *conn) send(traceID uint64, op wire.Op, payload []byte) error {
	if cn.broken {
		return errBroken
	}
	if traceID != 0 {
		op, payload = wire.OpTrace, wire.EncodeTraceEnvelope(traceID, 0, true, op, payload)
	}
	if err := wire.WriteFrame(cn.bw, uint8(op), payload); err != nil {
		cn.broken = true
		return err
	}
	return nil
}

func (cn *conn) flush() error {
	if err := cn.bw.Flush(); err != nil {
		cn.broken = true
		return err
	}
	return nil
}

// recv reads one reply, after dropping the replies owed to ends that did not
// wait. Transport failures — at either — mark the connection broken and are
// returned as-is; protocol errors are rehydrated into typed sentinels via
// wire.ErrOf.
func (cn *conn) recv() ([]byte, error) {
	for ; cn.owed > 0; cn.owed-- {
		if _, _, err := wire.ReadFrame(cn.br); err != nil {
			cn.broken = true
			return nil, err
		}
	}
	tag, resp, err := wire.ReadFrame(cn.br)
	if err != nil {
		cn.broken = true
		return nil, err
	}
	if code := wire.Code(tag); code != wire.CodeOK {
		return nil, wire.ErrOf(code, string(resp))
	}
	return resp, nil
}

// call performs one request/response round trip.
func (cn *conn) call(op wire.Op, payload []byte) ([]byte, error) {
	return cn.callTraced(0, op, payload)
}

// callTraced is call with an optional trace envelope (see send).
func (cn *conn) callTraced(traceID uint64, op wire.Op, payload []byte) ([]byte, error) {
	if err := cn.send(traceID, op, payload); err != nil {
		return nil, err
	}
	if err := cn.flush(); err != nil {
		return nil, err
	}
	return cn.recv()
}

// backoff is exponential backoff with full jitter: each sleep is uniform in
// [0, delay] and doubles the next delay, from retryBase up to 64x it.
type backoff struct{ delay time.Duration }

func (b *backoff) sleep() {
	if b.delay == 0 {
		b.delay = retryBase
	}
	time.Sleep(time.Duration(rand.Int63n(int64(b.delay) + 1)))
	if b.delay < 64*retryBase {
		b.delay *= 2
	}
}

// withRetry runs fn, retrying wire.ErrOverloaded with backoff.
func withRetry(fn func() error) error {
	var bo backoff
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !errors.Is(err, wire.ErrOverloaded) || attempt >= maxRetries {
			return err
		}
		bo.sleep()
	}
}

// Tx is a transaction pinned to one pooled connection. Until its first
// operation has been answered it exists only here: handle is 0, and cn is nil
// (Begin) or the replica connection BeginRead probed.
type Tx struct {
	c         *Client
	cn        *conn
	handle    uint64 // the server's handle; 0 = BEGIN not sent or not yet answered
	done      bool
	readOnly  bool   // opened by BeginRead/BeginAt; call rejects writes client-side
	replica   bool   // cn is a follower picked by BeginRead, BEGIN still to be sent
	sentWrite bool   // a write op was sent, whatever its answer; the end then waits (see finish)
	wrote     bool   // a write op succeeded (set by call and settle); COMMIT transport loss is then in-doubt
	traceID   uint64 // nonzero when this transaction is trace-sampled
	// ahead holds the inserts sent without reading their replies, with
	// aheadBytes of payload, until settle reads them.
	ahead      []aheadFrame
	aheadBytes int
	// doomed is the failure settle met: an insert's error or the lost
	// connection. Every later call returns it, and the end is an ABORT.
	doomed error
}

// aheadFrame is an insert sent ahead: kept until its reply is read, so that
// an OVERLOADED refusal can send it again.
type aheadFrame struct {
	op      wire.Op
	payload []byte
}

// Begin opens a transaction without talking to the server: BEGIN goes out
// with the first operation (see Tx.first), which is also where a draining
// primary's failover redirect, a dead pooled connection and ErrNoPrimary
// surface. The only error is a closed client.
func (c *Client) Begin() (*Tx, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("client: closed")
	}
	// Head sampling happens here, at the root of the request: one coin flip
	// per transaction, and the decision rides every traced frame.
	var traceID uint64
	if c.opts.TraceSample > 0 && rand.Float64() < c.opts.TraceSample {
		for traceID == 0 {
			traceID = rand.Uint64()
		}
	}
	return &Tx{c: c, traceID: traceID}, nil
}

// BeginRead opens a read-only transaction, preferring a replica from
// Options.Replicas (round-robin) over the primary. A replica is eligible
// only if its REPL_LSN vector covers every LSN this client has seen a
// COMMIT ack for — the read-your-writes rule — so a freshly committed write
// is never invisible to the session that made it. Replicas that are
// unreachable or lagging are skipped; when none qualifies, the transaction
// runs on the primary (Begin), which is always consistent.
//
// Write ops on the returned Tx fail client-side with engine.ErrReadOnly.
func (c *Client) BeginRead() (*Tx, error) {
	c.mu.Lock()
	replicas := c.opts.Replicas
	floor := append([]uint64(nil), c.lastCommit...)
	start := c.rrNext
	c.rrNext++
	c.mu.Unlock()

	for i := 0; i < len(replicas); i++ {
		addr := replicas[(start+i)%len(replicas)]
		if tx, err := c.beginReadAt(addr, floor); err == nil {
			c.replicaReads.Add(1) // taken back if the BEGIN there fails (Tx.first)
			return tx, nil
		}
	}
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	tx.readOnly = true
	c.primaryReads.Add(1)
	return tx, nil
}

// beginReadAt probes one replica's applied-LSN vector and, if it covers
// floor, pins the transaction to the same connection: its BEGIN follows the
// probe there with the first operation, so the snapshot is taken at or after
// the probed position.
func (c *Client) beginReadAt(addr string, floor []uint64) (*Tx, error) {
	cn, err := c.getAt(addr)
	if err != nil {
		return nil, err
	}
	resp, err := cn.call(wire.OpReplLSN, nil)
	if err != nil {
		c.put(cn)
		return nil, err
	}
	applied, err := decodeLSNVector(resp)
	if err != nil || !covers(applied, floor) {
		c.put(cn)
		if err == nil {
			err = errors.New("client: replica lags session commit point")
		}
		return nil, err
	}
	return &Tx{c: c, cn: cn, readOnly: true, replica: true}, nil
}

// noteCommit folds a COMMIT reply's durable-LSN vector into the session
// floor (element-wise max, so concurrent transactions can land out of
// order). A reply that carries no vector leaves the floor as it was.
func (c *Client) noteCommit(resp []byte) {
	vec, err := decodeLSNVector(resp)
	if err != nil || len(vec) == 0 {
		return
	}
	c.mu.Lock()
	if len(c.lastCommit) < len(vec) {
		c.lastCommit = append(c.lastCommit, make([]uint64, len(vec)-len(c.lastCommit))...)
	}
	for i, l := range vec {
		if l > c.lastCommit[i] {
			c.lastCommit[i] = l
		}
	}
	c.mu.Unlock()
}

// ReadRouting reports how many BeginRead transactions ran on the primary
// versus on a replica.
func (c *Client) ReadRouting() (primary, replica int64) {
	return c.primaryReads.Load(), c.replicaReads.Load()
}

func decodeLSNVector(b []byte) ([]uint64, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := wire.Reader{B: b}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	vec := make([]uint64, n)
	for i := range vec {
		if vec[i], err = r.U64(); err != nil {
			return nil, err
		}
	}
	return vec, nil
}

// covers reports whether every element of floor is matched or exceeded in
// vec. A vector of different length (shard-count mismatch) never covers.
func covers(vec, floor []uint64) bool {
	if len(floor) == 0 {
		return true
	}
	if len(vec) != len(floor) {
		return false
	}
	for i, f := range floor {
		if vec[i] < f {
			return false
		}
	}
	return true
}

// Promote asks a follower server to stop replicating, finish replay, and
// accept writes. Rejected with wire.ErrBadRequest on a non-follower.
func (c *Client) Promote() error {
	cn, err := c.get()
	if err != nil {
		return err
	}
	_, err = cn.call(wire.OpPromote, nil)
	c.put(cn)
	return err
}

// payload encodes a request body: the handle, then the op's own fields.
func (t *Tx) payload(build func(*wire.Buf)) []byte {
	var b wire.Buf
	b.U64(t.handle)
	if build != nil {
		build(&b)
	}
	return b.B
}

// call runs one operation of the transaction. What the client knows about an
// op beyond its payload comes from its wire.Kind: a write is refused on a
// read-only transaction before anything is sent, once one is sent the end
// waits for its reply, and once one has succeeded a lost COMMIT is in doubt
// (see finish). Behind the first operation an insert goes ahead (sendAhead);
// any other operation settles the inserts ahead of it and waits.
func (t *Tx) call(op wire.Op, build func(*wire.Buf)) ([]byte, error) {
	write := op.Kind() == wire.KindWrite
	if write && t.readOnly {
		return nil, engine.ErrReadOnly
	}
	if t.done {
		return nil, errors.New("client: transaction finished")
	}
	if t.doomed != nil {
		return nil, t.doomed
	}
	if write {
		t.sentWrite = true
	}
	var resp []byte
	var err error
	switch {
	case t.handle == 0:
		resp, err = t.first(op, build)
	case op == wire.OpInsert || op == wire.OpInsertRow:
		return nil, t.sendAhead(op, t.payload(build))
	default:
		if err = t.settle(); err != nil {
			return nil, err
		}
		resp, err = t.roundTrip(op, t.payload(build))
	}
	if write && err == nil {
		t.wrote = true
	}
	return resp, err
}

// roundTrip sends one operation under the transaction's handle and waits for
// its reply, retrying OVERLOADED with backoff.
func (t *Tx) roundTrip(op wire.Op, payload []byte) (resp []byte, err error) {
	traceID := t.envelope(op)
	err = withRetry(func() (err error) {
		resp, err = t.cn.callTraced(traceID, op, payload)
		return err
	})
	return resp, err
}

// sendAhead buffers an insert without reading its reply, and settles once
// maxAhead inserts or maxAheadBytes of their payloads are outstanding.
func (t *Tx) sendAhead(op wire.Op, payload []byte) error {
	if err := t.cn.send(0, op, payload); err != nil {
		t.doomed = err
		return err
	}
	t.ahead = append(t.ahead, aheadFrame{op: op, payload: payload})
	if t.aheadBytes += len(payload); len(t.ahead) >= maxAhead || t.aheadBytes >= maxAheadBytes {
		return t.settle()
	}
	return nil
}

// settle flushes the inserts sent ahead and reads their replies, and returns
// the failure that dooms the transaction, if one has.
func (t *Tx) settle() error {
	if len(t.ahead) > 0 {
		t.doomed = t.readAhead()
		clear(t.ahead) // drop the payloads
		t.ahead, t.aheadBytes = t.ahead[:0], 0
	}
	return t.doomed
}

// readAhead is settle's work. The replies come back in order, after any
// owed ones (recv). Admission control refuses an insert before executing it,
// so a refused one is sent again alone, after a backoff; any other failure,
// or a connection lost before every reply is in, is returned; on a live
// connection only once every reply has been read, so the stream stays in
// step.
func (t *Tx) readAhead() error {
	cn := t.cn
	if err := cn.flush(); err != nil {
		return err
	}
	var failed error
	var refused []aheadFrame
	for _, f := range t.ahead {
		_, err := cn.recv()
		switch {
		case cn.broken:
			return err
		case err == nil:
			t.wrote = true
		case errors.Is(err, wire.ErrOverloaded):
			refused = append(refused, f)
		case failed == nil:
			failed = err
		}
	}
	if failed != nil || len(refused) == 0 {
		return failed
	}
	var bo backoff
	bo.sleep()
	for _, f := range refused {
		if _, err := t.roundTrip(f.op, f.payload); err != nil {
			return err
		}
	}
	t.wrote = true
	return nil
}

// envelope is the trace id op's frame carries. Only BEGIN and COMMIT ride the
// envelope: COMMIT is the frame whose server-side span parents the whole
// commit pipeline. Point ops stay bare — tracing every GET would double
// framing overhead for spans nobody looks at.
func (t *Tx) envelope(op wire.Op) uint64 {
	if op == wire.OpCommit {
		return t.traceID
	}
	return 0
}

// first runs the transaction's first operation with the deferred BEGIN in
// front of it: both frames leave in one write, the server answers both in
// one, and the transaction costs one round trip less. The operation names
// handle 0, which the server resolves to the BEGIN just before it on this
// connection — and to nothing if that BEGIN was refused, so the pair either
// starts this transaction or does nothing at all.
//
// That makes the pair safe to repeat, and this is where the client's
// failover lives. A BEGIN refused by a draining server that names its
// follower (wire.FailoverAddr on SHUTTING_DOWN) repoints the client and
// repeats the pair there, so a primary→follower handoff looks like one slow
// operation rather than an error surfaced to every caller. A connection that
// fails before both replies are in takes the session's open transactions
// down with it on the server, so the pair is repeated on a fresh one.
// OVERLOADED is retried in place: the pair if BEGIN was refused, the
// operation alone under its real handle if BEGIN got through.
//
// The chase is bounded: at most maxRedirects repoints and
// maxRetries reconnects, with backoff between reconnects. Once the
// budget is spent the last error is surfaced wrapped in ErrNoPrimary so
// callers can errors.Is(err, client.ErrNoPrimary) rather than pattern-match.
func (t *Tx) first(op wire.Op, build func(*wire.Buf)) ([]byte, error) {
	c := t.c
	var lastErr error
	redirects, reconnects := 0, 0
	var bo backoff // between reconnects only: a redirect names a live target
	for {
		if t.cn == nil {
			cn, err := c.get()
			if err != nil {
				lastErr = err
				if reconnects++; reconnects > maxRetries {
					break
				}
				bo.sleep()
				continue
			}
			t.cn = cn
		}
		var resp []byte
		err := withRetry(func() (err error) {
			if t.handle == 0 {
				resp, err = t.beginWith(op, build)
			} else {
				resp, err = t.cn.call(op, t.payload(build))
			}
			return err
		})
		cn, broken := t.cn, t.cn.broken
		if t.handle != 0 && !broken {
			return resp, err // the transaction is open; err is the operation's own
		}

		// Nothing of this attempt survives on the server. Once pooled, cn
		// belongs to its next owner: nothing of it is read after put.
		t.cn, t.handle = nil, 0
		c.put(cn) // broken connections are closed, healthy ones pooled
		lastErr = err
		if t.replica {
			// Whatever a follower refuses, the primary serves: it is always
			// consistent.
			t.replica = false
			c.replicaReads.Add(-1)
			c.primaryReads.Add(1)
			continue
		}
		if addr := wire.FailoverAddr(err); addr != "" {
			if redirects++; redirects > maxRedirects {
				break
			}
			c.redirect(addr)
			continue
		}
		if broken {
			// A pooled connection died under us (drain force-close, primary
			// crash): retry on a freshly dialed one.
			if reconnects++; reconnects > maxRetries {
				break
			}
			bo.sleep()
			continue
		}
		return nil, err
	}
	return nil, fmt.Errorf("%w (after %d redirects, %d reconnects): %w",
		ErrNoPrimary, redirects, reconnects, lastErr)
}

// beginWith is one attempt of first: BEGIN and the operation (handle 0) in
// one flush, then both replies. t.handle is set iff BEGIN succeeded, and
// then the results are the operation's; otherwise the error says why nothing
// ran.
func (t *Tx) beginWith(op wire.Op, build func(*wire.Buf)) ([]byte, error) {
	cn := t.cn
	if err := cn.send(t.traceID, wire.OpBegin, nil); err != nil {
		return nil, err
	}
	if err := cn.send(0, op, t.payload(build)); err != nil {
		return nil, err
	}
	if err := cn.flush(); err != nil {
		return nil, err
	}
	begun, beginErr := cn.recv()
	if cn.broken {
		return nil, beginErr
	}
	// The server answers every frame: after a refused BEGIN the operation
	// behind it found no transaction, and its reply still has to be read.
	resp, opErr := cn.recv()
	if cn.broken {
		return nil, opErr
	}
	if beginErr != nil {
		return nil, beginErr
	}
	r := wire.Reader{B: begun}
	handle, err := r.U64()
	if err != nil {
		return nil, err
	}
	t.handle = handle
	return resp, opErr
}

// Get returns the value of key visible to the transaction.
func (t *Tx) Get(key int64) ([]byte, error) {
	resp, err := t.call(wire.OpGet, func(b *wire.Buf) { b.I64(key) })
	if err != nil {
		return nil, err
	}
	r := wire.Reader{B: resp}
	return r.Bytes()
}

// Insert stores val under key. Behind the transaction's first operation it
// returns without waiting for the server (see the package doc): its failure,
// if any, is returned by the next call that waits or by Commit.
func (t *Tx) Insert(key int64, val []byte) error {
	_, err := t.call(wire.OpInsert, func(b *wire.Buf) { b.I64(key); b.Bytes(val) })
	return err
}

// Update overwrites the value of key.
func (t *Tx) Update(key int64, val []byte) error {
	_, err := t.call(wire.OpUpdate, func(b *wire.Buf) { b.I64(key); b.Bytes(val) })
	return err
}

// Delete removes key.
func (t *Tx) Delete(key int64) error {
	_, err := t.call(wire.OpDelete, func(b *wire.Buf) { b.I64(key) })
	return err
}

// KV is one Scan result entry. Val belongs to the caller; the entries of one
// Scan share the reply they were decoded from, each capped at its own length
// so that appending to one never writes into the next.
type KV struct {
	Key int64
	Val []byte
}

// Scan returns up to limit visible entries with lo <= key <= hi in key
// order (limit 0 = unlimited).
func (t *Tx) Scan(lo, hi int64, limit int) ([]KV, error) {
	resp, err := t.call(wire.OpScan, func(b *wire.Buf) {
		b.I64(lo)
		b.I64(hi)
		b.U32(uint32(limit))
	})
	if err != nil {
		return nil, err
	}
	r := wire.Reader{B: resp}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	out := make([]KV, 0, n)
	for i := uint32(0); i < n; i++ {
		k, err := r.I64()
		if err != nil {
			return nil, err
		}
		v, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		out = append(out, KV{Key: k, Val: v[:len(v):len(v)]})
	}
	return out, nil
}

// finish sends the final op and returns the connection to the pool. Only a
// transaction that sent a write waits for the reply; the end of any other
// leaves with the connection's next request (see the package doc). Inserts
// sent ahead are settled first, and a failed one turns the end into ABORT.
func (t *Tx) finish(op wire.Op) error {
	if t.done {
		return errors.New("client: transaction finished")
	}
	var err error
	switch {
	case t.handle == 0: // BEGIN never left: the server has nothing to finish
	case !t.sentWrite:
		if err = t.cn.send(t.envelope(op), op, t.payload(nil)); err == nil {
			t.cn.owed++
		}
	case t.settle() != nil:
		// An insert failed, or the connection died with inserts unanswered.
		// No COMMIT goes out, so nothing is in doubt: on a live connection
		// the transaction ends with ABORT, and Commit returns the failure.
		err = t.doomed
		if !t.cn.broken {
			if _, aerr := t.roundTrip(wire.OpAbort, t.payload(nil)); op == wire.OpAbort {
				err = aerr
			}
		}
	case t.cn.broken:
		// An earlier operation's round trip broke the connection, and the
		// session's transaction died with it. No COMMIT can leave, so
		// nothing is in doubt.
		err = errBroken
	default:
		var resp []byte
		resp, err = t.roundTrip(op, t.payload(nil))
		switch {
		case err == nil && op == wire.OpCommit:
			// The COMMIT ack carries the per-shard durable LSN vector;
			// remember it so BeginRead only routes to replicas that have
			// caught up past this session's writes.
			t.c.noteCommit(resp)
		case err != nil && op == wire.OpCommit && (t.cn.broken && t.wrote || errors.Is(err, engine.ErrInDoubt)):
			// The connection died with the commit in flight, or the server
			// could not tell whether its commit decision reached the device:
			// either way it may have carried the commit through, so this is
			// not a failure — it is an unknown outcome. Surface the typed
			// sentinel so callers re-read instead of blindly retrying the
			// writes.
			err = fmt.Errorf("%w: %w", ErrInDoubt, err)
		}
	}
	t.done = true
	t.c.put(t.cn)
	t.cn = nil
	return err
}

// Commit makes the transaction durable (group-committed server-side) and
// returns its outcome. For a transaction that sent no write there is no
// outcome to wait for: Commit buffers the COMMIT, returns nil, and the frame
// leaves with the connection's next request or within lazyEndDelay. If an
// insert sent ahead failed, Commit aborts the transaction and returns that
// failure.
func (t *Tx) Commit() error { return t.finish(wire.OpCommit) }

// Abort rolls the transaction back; like Commit, it waits for the server
// only if the transaction sent a write.
func (t *Tx) Abort() error { return t.finish(wire.OpAbort) }

// Stats fetches engine and service counters.
func (c *Client) Stats() (server.StatsReply, error) {
	var out server.StatsReply
	cn, err := c.get()
	if err != nil {
		return out, err
	}
	resp, err := cn.call(wire.OpStats, nil)
	c.put(cn)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return out, fmt.Errorf("client: decode stats: %w", err)
	}
	return out, nil
}
