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
//   - bounded retention in one ring, written where spans finish: FinishAt
//     stores the span in a 4,096-slot ring under the tracer's mutex, on the
//     goroutine that finishes it and before the op's reply is written,
//     evicting the oldest. No goroutine stands between a span and the ring,
//     so a burst loses nothing and a tracer needs no teardown.
//     sias_trace_spans_total counts what was stored, so the STATS frame
//     and /metrics read identical values at quiescence, same as every
//     other collected family.

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

// FinishAt completes the span at the given end time and stores it in the
// tracer's ring. The span must not be used afterwards.
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

// traceRing is how many finished spans a tracer retains.
const traceRing = 4096

// Tracer owns the span ring and the sampling policy. A nil *Tracer is the
// disabled tracer: Sample reports false and every Start* returns nil.
type Tracer struct {
	sample float64

	mu   sync.Mutex
	ring []SpanRecord
	n    atomic.Int64 // spans stored, ring[n%traceRing] is the next slot; written under mu
}

// NewTracer returns a tracer that head-samples requests with probability
// sample (clamped to [0,1]) and retains the last 4,096 finished spans.
func NewTracer(sample float64) *Tracer {
	return &Tracer{sample: sample, ring: make([]SpanRecord, traceRing)}
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

// keep stores a finished span in the ring, evicting the oldest once full.
func (t *Tracer) keep(rec SpanRecord) {
	t.mu.Lock()
	n := t.n.Load()
	t.ring[n%traceRing] = rec
	t.n.Store(n + 1)
	t.mu.Unlock()
}

// Spans reports how many spans were stored (ring eviction does not
// decrement — this is the sias_trace_spans_total counter).
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Snapshot returns the newest retained spans, oldest first, as many as were
// retained when it was called. The copy is allocated before the lock, so a
// scrape holds the mutex only to copy the ring.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, min(t.n.Load(), traceRing))
	t.mu.Lock()
	defer t.mu.Unlock()
	c := copy(out, t.ring[(t.n.Load()-int64(len(out)))%traceRing:])
	copy(out[c:], t.ring)
	return out
}
