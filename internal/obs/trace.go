package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed request tracing. A trace is a set of spans sharing one trace
// id; the context (trace id, parent span id, sampled bit) rides the wire so
// spans recorded in different processes — client, primary, follower —
// stitch into one request timeline. The design mirrors the metrics side of
// this package:
//
//   - head sampling: the decision is made once, where the request enters
//     (client -trace-sample, or the server's own coin flip for bare
//     frames), and every layer below merely honours the bit. An unsampled
//     request allocates nothing — Span is nil-safe throughout, so call
//     sites thread spans unconditionally;
//   - always-keep for slow ops: an op that trips the slow-op threshold is
//     retained even when the sampler said no, recorded retrospectively
//     from the timestamps the server already took (ForceRootAt), so the
//     slow-op log can link every hit to a trace;
//   - bounded retention: finished spans are handed to a single collector
//     goroutine through a non-blocking channel send and land in a ring.
//     The sias_trace_spans_total / sias_trace_dropped_total counters are
//     bumped synchronously at the hand-off — before the op's reply is
//     written — so the STATS frame and /metrics read identical values at
//     quiescence, same as every other collected family.

// SpanContext is the propagated part of a span: what crosses the wire.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// SpanRecord is one finished span as retained in the ring and served at
// /debug/traces. Ids are rendered as %016x hex by the HTTP handler.
type SpanRecord struct {
	TraceID     uint64
	SpanID      uint64
	ParentID    uint64
	Name        string
	Shard       int // -1 when not pinned to one shard
	Start       time.Time
	Duration    time.Duration
	Annotations map[string]string
}

// Span is an in-flight span. A nil *Span is the unsampled span: every
// method is a no-op, so instrumented paths never branch on the sampling
// decision.
type Span struct {
	t        *Tracer
	traceID  uint64
	spanID   uint64
	parentID uint64
	name     string
	shard    int
	start    time.Time
	annot    map[string]string
}

// Context returns the propagation context for children of this span. The
// zero SpanContext (nil span) is unsampled, so threading it onward is safe.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// TraceID reports the span's trace id, 0 for the nil span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SetShard pins the span to a shard.
func (s *Span) SetShard(i int) {
	if s != nil {
		s.shard = i
	}
}

// Annotate attaches a key=value note to the span. Spans are owned by one
// goroutine until Finish, so no locking.
func (s *Span) Annotate(k, v string) {
	if s == nil {
		return
	}
	if s.annot == nil {
		s.annot = make(map[string]string, 4)
	}
	s.annot[k] = v
}

// Finish completes the span now.
func (s *Span) Finish() { s.FinishAt(time.Now()) }

// FinishAt completes the span at the given end time and hands it to the
// collector. The span must not be used afterwards.
func (s *Span) FinishAt(end time.Time) {
	if s == nil {
		return
	}
	s.t.keep(SpanRecord{
		TraceID:     s.traceID,
		SpanID:      s.spanID,
		ParentID:    s.parentID,
		Name:        s.name,
		Shard:       s.shard,
		Start:       s.start,
		Duration:    end.Sub(s.start),
		Annotations: s.annot,
	})
}

// traceRing is how many finished spans a tracer retains; traceChanSize is
// the hand-off channel's capacity.
const (
	traceRing     = 4096
	traceChanSize = 1024
)

// Tracer owns the span ring and the sampling policy. A nil *Tracer is the
// disabled tracer: Sample reports false and every Start* returns nil.
type Tracer struct {
	sample float64

	ch   chan SpanRecord
	sync chan chan struct{}
	quit chan struct{}
	done chan struct{}

	spans   atomic.Int64 // retained (handed to the collector)
	dropped atomic.Int64 // lost to a full hand-off channel
	closed  atomic.Bool

	mu   sync.Mutex
	ring []SpanRecord
	n    int // total stored, ring[n%len] is the next slot
}

// NewTracer starts a tracer that head-samples requests with probability
// sample (clamped to [0,1]) and retains the last 4,096 finished spans. Close
// releases the collector goroutine.
func NewTracer(sample float64) *Tracer {
	t := &Tracer{
		sample: sample,
		ch:     make(chan SpanRecord, traceChanSize),
		sync:   make(chan chan struct{}),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		ring:   make([]SpanRecord, traceRing),
	}
	go t.collect()
	return t
}

// Close stops the collector after draining every span already handed off.
// Spans finished after Close are counted as dropped. Idempotent, nil-safe.
func (t *Tracer) Close() {
	if t == nil || t.closed.Swap(true) {
		return
	}
	close(t.quit)
	<-t.done
}

// Sample flips the head-sampling coin. The nil tracer never samples.
func (t *Tracer) Sample() bool {
	if t == nil || t.sample <= 0 {
		return false
	}
	return t.sample >= 1 || rand.Float64() < t.sample
}

// newID returns a nonzero random id.
func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// NewContext mints a fresh sampled root context (a new trace).
func (t *Tracer) NewContext() SpanContext {
	return SpanContext{TraceID: newID(), Sampled: true}
}

// StartSpan opens a child span of parent, nil when parent is unsampled (or
// the tracer disabled).
func (t *Tracer) StartSpan(parent SpanContext, name string) *Span {
	return t.StartSpanAt(parent, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for spans whose
// window was measured before the decision to record them (shared
// group-commit flushes, retrospective slow ops).
func (t *Tracer) StartSpanAt(parent SpanContext, name string, start time.Time) *Span {
	if t == nil || !parent.Sampled || parent.TraceID == 0 {
		return nil
	}
	return &Span{t: t, traceID: parent.TraceID, spanID: newID(), parentID: parent.SpanID,
		name: name, shard: -1, start: start}
}

// LinkedSpanAt opens a parentless span inside an existing trace — used by a
// follower linking its apply work back to the originating commit's trace id
// carried in the WAL stream. Retained regardless of the local sampling rate.
func (t *Tracer) LinkedSpanAt(traceID uint64, name string, start time.Time) *Span {
	if t == nil || traceID == 0 {
		return nil
	}
	return &Span{t: t, traceID: traceID, spanID: newID(), name: name, shard: -1, start: start}
}

// ForceRootAt opens a new trace bypassing the sampler — the always-keep
// path for ops that turned out slow after running unsampled.
func (t *Tracer) ForceRootAt(name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, traceID: newID(), spanID: newID(), name: name, shard: -1, start: start}
}

// keep hands a finished span to the collector without blocking the request
// path; the counters move here, synchronously, so STATS and /metrics agree.
func (t *Tracer) keep(rec SpanRecord) {
	if t.closed.Load() {
		t.dropped.Add(1)
		return
	}
	select {
	case t.ch <- rec:
		t.spans.Add(1)
	default:
		t.dropped.Add(1)
	}
}

// Drain blocks until every span handed off before the call is stored in the
// ring — a read barrier for scrapes; the request path never needs it. Nil-safe
// and a no-op after Close (Close already drained).
func (t *Tracer) Drain() {
	if t == nil || t.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case t.sync <- ack:
		<-ack
	case <-t.done:
	}
}

// collect is the single goroutine owning the ring.
func (t *Tracer) collect() {
	defer close(t.done)
	for {
		select {
		case rec := <-t.ch:
			t.store(rec)
		case ack := <-t.sync:
			t.flush()
			close(ack)
		case <-t.quit:
			t.flush()
			return
		}
	}
}

// flush stores everything already buffered in the hand-off channel.
func (t *Tracer) flush() {
	for {
		select {
		case rec := <-t.ch:
			t.store(rec)
		default:
			return
		}
	}
}

func (t *Tracer) store(rec SpanRecord) {
	t.mu.Lock()
	t.ring[t.n%len(t.ring)] = rec
	t.n++
	t.mu.Unlock()
}

// Spans reports how many spans were retained (ring eviction does not
// decrement — this is the sias_trace_spans_total counter).
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// Dropped reports spans lost to a full hand-off channel.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]SpanRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(t.n-n+i)%len(t.ring)])
	}
	return out
}
