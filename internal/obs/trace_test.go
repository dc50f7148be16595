package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTracerNilSafe locks in the "nil is the disabled tracer / unsampled
// span" contract every instrumented call site relies on.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	if sp := tr.StartSpan(SpanContext{TraceID: 1, Sampled: true}, "x"); sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if tr.LinkedSpanAt(1, "x", time.Now()) != nil || tr.ForceRootAt("x", time.Now()) != nil {
		t.Fatal("nil tracer returned a span")
	}
	if tr.Spans() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer reported state")
	}
	tr.Drain()
	tr.Close() // must not panic

	var sp *Span
	sp.SetShard(3)
	sp.Annotate("k", "v")
	sp.Finish()
	if sp.TraceID() != 0 {
		t.Fatal("nil span has a trace id")
	}
	if ctx := sp.Context(); ctx.Sampled || ctx.TraceID != 0 {
		t.Fatalf("nil span context = %+v, want unsampled zero", ctx)
	}
}

func TestTracerSampling(t *testing.T) {
	off := NewTracer(0)
	defer off.Close()
	for i := 0; i < 100; i++ {
		if off.Sample() {
			t.Fatal("sample rate 0 flipped heads")
		}
	}
	// Unsampled context starts no span.
	if sp := off.StartSpan(SpanContext{TraceID: 7}, "x"); sp != nil {
		t.Fatal("unsampled context produced a span")
	}
	// ...but a wire-carried sampled context is always honoured,
	if sp := off.StartSpan(SpanContext{TraceID: 7, Sampled: true}, "x"); sp == nil {
		t.Fatal("sampled context ignored at rate 0")
	}
	// ...as are linked and forced spans (always-keep paths).
	if off.LinkedSpanAt(7, "x", time.Now()) == nil || off.ForceRootAt("x", time.Now()) == nil {
		t.Fatal("always-keep span not started at rate 0")
	}

	on := NewTracer(1)
	defer on.Close()
	for i := 0; i < 100; i++ {
		if !on.Sample() {
			t.Fatal("sample rate 1 flipped tails")
		}
	}
	ctx := on.NewContext()
	if !ctx.Sampled || ctx.TraceID == 0 || ctx.SpanID != 0 {
		t.Fatalf("NewContext = %+v, want sampled root", ctx)
	}
}

// ringSpans is the span count NewTracer documents it retains.
const ringSpans = 4096

// TestTracerRingRetention finishes 6 spans more than the ring holds: the
// snapshot is the ring's worth of newest spans, oldest first.
func TestTracerRingRetention(t *testing.T) {
	tr := NewTracer(1)
	defer tr.Close()
	ctx := tr.NewContext()
	start := time.Now()
	const total = ringSpans + 6
	for i := 0; i < total; i++ {
		sp := tr.StartSpanAt(ctx, "op", start.Add(time.Duration(i)*time.Millisecond))
		sp.FinishAt(start.Add(time.Duration(i+1) * time.Millisecond))
		if i%(traceChanSize/2) == 0 {
			tr.Drain() // keep the hand-off channel from filling
		}
	}
	tr.Drain()
	if tr.Spans() != total || tr.Dropped() != 0 {
		t.Fatalf("spans=%d dropped=%d, want %d/0", tr.Spans(), tr.Dropped(), total)
	}
	snap := tr.Snapshot()
	if len(snap) != ringSpans {
		t.Fatalf("snapshot length %d, want ring size %d", len(snap), ringSpans)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start.Before(snap[i-1].Start) {
			t.Fatalf("snapshot not oldest-first: %v before %v", snap[i].Start, snap[i-1].Start)
		}
	}
	// The survivors are the ringSpans newest spans.
	if got := snap[0].Start; !got.Equal(start.Add(6 * time.Millisecond)) {
		t.Fatalf("oldest retained start %v, want the 7th span", got)
	}
	if got := snap[ringSpans-1].Start; !got.Equal(start.Add((total - 1) * time.Millisecond)) {
		t.Fatalf("newest retained start %v, want the last span", got)
	}
}

func TestTracerSpanLineage(t *testing.T) {
	tr := NewTracer(1)
	defer tr.Close()
	root := tr.StartSpan(tr.NewContext(), "COMMIT")
	child := tr.StartSpan(root.Context(), "route")
	linked := tr.LinkedSpanAt(root.TraceID(), "repl.apply", time.Now())
	forced := tr.ForceRootAt("GET", time.Now())
	for _, sp := range []*Span{child, linked, forced, root} {
		sp.Finish()
	}
	tr.Drain()
	byName := map[string]SpanRecord{}
	for _, rec := range tr.Snapshot() {
		byName[rec.Name] = rec
	}
	r, c, l, f := byName["COMMIT"], byName["route"], byName["repl.apply"], byName["GET"]
	if r.ParentID != 0 {
		t.Fatalf("root has parent %x", r.ParentID)
	}
	if c.TraceID != r.TraceID || c.ParentID != r.SpanID {
		t.Fatalf("child lineage: trace %x/%x parent %x vs root span %x", c.TraceID, r.TraceID, c.ParentID, r.SpanID)
	}
	if l.TraceID != r.TraceID || l.ParentID != 0 {
		t.Fatalf("linked span must share the trace id with no parent: %+v", l)
	}
	if f.TraceID == r.TraceID || f.TraceID == 0 {
		t.Fatalf("forced root must open its own trace: %x vs %x", f.TraceID, r.TraceID)
	}
}

// TestTracerConcurrent hammers span start/finish from many goroutines while
// scrapes (Drain+Snapshot) run concurrently — run under -race in CI. The
// workers finish more spans than the ring holds, so stores wrap it.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1)
	defer tr.Close()
	const workers, perWorker = 8, 300
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				tr.Drain()
				_ = tr.Snapshot()
				_ = tr.Spans()
				_ = tr.Dropped()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				root := tr.StartSpan(tr.NewContext(), "COMMIT")
				child := tr.StartSpan(root.Context(), "route")
				child.SetShard(w)
				child.Annotate("i", "x")
				child.Finish()
				root.Finish()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	tr.Drain()
	if got := tr.Spans() + tr.Dropped(); got != workers*perWorker*2 {
		t.Fatalf("spans+dropped = %d, want %d", got, workers*perWorker*2)
	}
	if got, want := len(tr.Snapshot()), min(int(tr.Spans()), ringSpans); got != want {
		t.Fatalf("snapshot holds %d spans, want %d", got, want)
	}
}

// TestTracerCloseDrains asserts Close stores every span already handed off
// and releases the collector goroutine — the CI leak check.
func TestTracerCloseDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := NewTracer(1)
	ctx := tr.NewContext()
	for i := 0; i < 32; i++ {
		tr.StartSpan(ctx, "op").Finish()
	}
	tr.Close()
	tr.Close() // idempotent
	if got := len(tr.Snapshot()); got != 32 {
		t.Fatalf("snapshot after Close has %d spans, want 32", got)
	}
	// Spans finished after Close are dropped, not stored.
	tr.StartSpan(ctx, "late").Finish()
	if tr.Dropped() != 1 || len(tr.Snapshot()) != 32 {
		t.Fatalf("span finished after Close: dropped=%d ring=%d, want 1/32", tr.Dropped(), len(tr.Snapshot()))
	}
	// The collector goroutine must be gone; give the runtime a moment.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before NewTracer, %d after Close — collector leaked", before, runtime.NumGoroutine())
}
