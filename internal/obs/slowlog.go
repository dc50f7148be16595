package obs

import (
	"fmt"
	"sync"
	"time"
)

// SlowOp is one over-threshold operation: what ran, where, and for how
// long. Shard is -1 when the op is not pinned to one shard (BEGIN, a
// cross-shard COMMIT, SCAN fan-outs). TraceID links the hit to its trace
// at /debug/traces ("" when no tracer was attached).
type SlowOp struct {
	Time       time.Time `json:"time"`
	Op         string    `json:"op"`
	Shard      int       `json:"shard"`
	Txn        uint64    `json:"txn"` // wire transaction handle, 0 if none
	DurationMs float64   `json:"duration_ms"`
	TraceID    string    `json:"trace_id,omitempty"`
}

// defSlowRingSize bounds the in-memory tail served at /debug/slowops.
const defSlowRingSize = 128

// SlowOpLog records operations that exceed a wall-clock threshold: each one
// produces a structured log line, bumps an (optional) counter, and lands in
// a fixed ring buffer served over HTTP — so "what just got slow" is
// answerable without grepping logs. Record is a single comparison when the
// op is under threshold; a nil *SlowOpLog disables everything.
type SlowOpLog struct {
	threshold time.Duration
	logf      func(format string, args ...any)
	total     *Counter // optional: sias_server_slow_ops_total

	mu   sync.Mutex
	ring []SlowOp
	n    int // total recorded
}

// NewSlowOpLog returns a log that records ops at or over threshold through
// logf (which may be nil to keep only the ring). A threshold <= 0 returns
// nil — the disabled log.
func NewSlowOpLog(threshold time.Duration, logf func(format string, args ...any)) *SlowOpLog {
	if threshold <= 0 {
		return nil
	}
	return &SlowOpLog{threshold: threshold, logf: logf, ring: make([]SlowOp, defSlowRingSize)}
}

// SetCounter attaches a registry counter bumped per recorded op.
func (l *SlowOpLog) SetCounter(c *Counter) {
	if l != nil {
		l.total = c
	}
}

// Threshold reports the configured threshold (0 when disabled).
func (l *SlowOpLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// RingSize reports the ring capacity (0 when disabled).
func (l *SlowOpLog) RingSize() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// Record logs op if d reached the threshold. traceID is the op's trace id
// when one exists (0 otherwise). Safe on a nil receiver.
func (l *SlowOpLog) Record(op string, shard int, txn uint64, traceID uint64, d time.Duration) {
	if l == nil || d < l.threshold {
		return
	}
	e := SlowOp{Time: time.Now(), Op: op, Shard: shard, Txn: txn, DurationMs: float64(d) / float64(time.Millisecond)}
	if traceID != 0 {
		e.TraceID = fmt.Sprintf("%016x", traceID)
	}
	if l.total != nil {
		l.total.Inc()
	}
	l.mu.Lock()
	l.ring[l.n%len(l.ring)] = e
	l.n++
	l.mu.Unlock()
	if l.logf != nil {
		l.logf("slow-op op=%s shard=%d txn=%d trace=%s dur=%.1fms threshold=%dms",
			op, shard, txn, e.TraceID, e.DurationMs, l.threshold.Milliseconds())
	}
}

// Recent returns the recorded tail, newest first.
func (l *SlowOpLog) Recent() []SlowOp {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n > len(l.ring) {
		n = len(l.ring)
	}
	out := make([]SlowOp, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(l.n-1-i)%len(l.ring)])
	}
	return out
}

// Total reports how many ops have been recorded since start.
func (l *SlowOpLog) Total() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
