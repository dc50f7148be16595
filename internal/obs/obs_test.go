package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExpositionFormat locks the text format down: HELP/TYPE once per
// family, no duplicate series, escaped label values, cumulative histogram
// buckets with a +Inf bucket equal to _count.
func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("sias_test_ops_total", "Ops handled.", Labels{"op": "GET"})
	c.Add(7)
	reg.Counter("sias_test_ops_total", "Ops handled.", Labels{"op": "PUT"}).Add(3)
	reg.CollectGauge("sias_test_temp", "A gauge.", func(emit func(Labels, float64)) {
		emit(nil, 1.5)
	})
	reg.Counter("sias_test_escaped_total", "Escaping.", Labels{"path": "a\\b\"c\nd"}).Inc()
	h := reg.Histogram("sias_test_seconds", "A histogram.", []float64{0.1, 1}, Labels{"shard": "0"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	reg.CollectGauge("sias_test_collected", "Collected.", func(emit func(Labels, float64)) {
		emit(Labels{"shard": "1"}, 2)
		emit(Labels{"shard": "0"}, 1)
	})

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP sias_test_ops_total Ops handled.\n",
		"# TYPE sias_test_ops_total counter\n",
		`sias_test_ops_total{op="GET"} 7` + "\n",
		`sias_test_ops_total{op="PUT"} 3` + "\n",
		"# TYPE sias_test_temp gauge\n",
		"sias_test_temp 1.5\n",
		`sias_test_escaped_total{path="a\\b\"c\nd"} 1` + "\n",
		"# TYPE sias_test_seconds histogram\n",
		`sias_test_seconds_bucket{shard="0",le="0.1"} 1` + "\n",
		`sias_test_seconds_bucket{shard="0",le="1"} 2` + "\n",
		`sias_test_seconds_bucket{shard="0",le="+Inf"} 3` + "\n",
		`sias_test_seconds_count{shard="0"} 3` + "\n",
		// Collected families render even with sorted label order.
		`sias_test_collected{shard="0"} 1` + "\n",
		`sias_test_collected{shard="1"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}

	// No duplicate series and HELP/TYPE exactly once per family.
	seen := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		seen[line]++
	}
	for line, n := range seen {
		if n > 1 {
			t.Errorf("line emitted %d times: %q", n, line)
		}
	}
}

// TestRegistryIdempotent verifies re-registering returns the same instrument
// and a type mismatch panics.
func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("sias_x_total", "x", nil)
	b := reg.Counter("sias_x_total", "x", nil)
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	reg.CollectGauge("sias_x_total", "x", nil)
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("sias_q_seconds", "q", []float64{1, 2, 4, 8}, nil)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	h2 := reg.Histogram("sias_q2_seconds", "q2", []float64{1, 2}, nil)
	h2.Observe(100) // +Inf bucket reports the last finite bound
	if q := h2.Quantile(0.99); q != 2 {
		t.Fatalf("overflow p99 = %v, want 2", q)
	}
	var empty Histogram
	if q := (&empty).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

// TestParseRoundTrip scrapes a registry's own exposition and checks the
// parsed histograms reproduce the live counts, sums and quantiles.
func TestParseRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("sias_rt_seconds", "rt", DefLatencyBuckets, Labels{"shard": "0"})
	for _, v := range []float64{0.0001, 0.001, 0.01, 0.1, 0.1, 3.0} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseHistograms(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	p, ok := parsed[`sias_rt_seconds{shard="0"}`]
	if !ok {
		t.Fatalf("series not found; got keys %v", keysOf(parsed))
	}
	if p.Count != h.Count() {
		t.Fatalf("count = %d, want %d", p.Count, h.Count())
	}
	if math.Abs(p.Sum-h.Sum()) > 1e-9 {
		t.Fatalf("sum = %v, want %v", p.Sum, h.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := p.Quantile(q), h.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Fatalf("q%v = %v, want %v", q, got, want)
		}
	}
}

func keysOf(m map[string]*ParsedHist) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestConcurrentScrape hammers counters, gauges and histograms from many
// goroutines while scrapes run concurrently — the lock-free hot path must
// stay race-clean (run under -race) and every scrape must parse.
func TestConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("sias_cc_total", "cc", Labels{"op": "X"})
	var gauge atomic.Int64
	reg.CollectGauge("sias_cc_gauge", "cg", func(emit func(Labels, float64)) {
		emit(nil, float64(gauge.Load()))
	})
	h := reg.Histogram("sias_cc_seconds", "ch", DefLatencyBuckets, nil)
	var src int64
	reg.CollectGauge("sias_cc_collected", "col", func(emit func(Labels, float64)) {
		emit(nil, float64(src))
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				ctr.Inc()
				gauge.Store(int64(j))
				h.Observe(float64(j%100) / 1000)
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseHistograms(sb.String()); err != nil {
			t.Fatalf("scrape %d did not parse: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Self-consistency after quiescence: bucket cum == count == counter sum.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	p, err := ParseHistograms(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := p["sias_cc_seconds"].Count; got != h.Count() {
		t.Fatalf("parsed count %d != live count %d", got, h.Count())
	}
}

func TestSlowOpLog(t *testing.T) {
	if NewSlowOpLog(0, nil) != nil {
		t.Fatal("threshold 0 must return the nil (disabled) log")
	}
	var nilLog *SlowOpLog
	nilLog.Record("GET", 0, 1, 0, time.Second) // must not panic

	var lines []string
	l := NewSlowOpLog(10*time.Millisecond, func(format string, args ...any) {
		lines = append(lines, format)
	})
	c := &Counter{}
	l.SetCounter(c)
	l.Record("GET", 2, 7, 0, 5*time.Millisecond) // under threshold
	l.Record("COMMIT", -1, 9, 0xabcd, 50*time.Millisecond)
	if c.Value() != 1 || l.Total() != 1 || len(lines) != 1 {
		t.Fatalf("counter=%d total=%d lines=%d, want 1/1/1", c.Value(), l.Total(), len(lines))
	}
	rec := l.Recent()
	if len(rec) != 1 || rec[0].Op != "COMMIT" || rec[0].Txn != 9 || rec[0].Shard != -1 {
		t.Fatalf("unexpected recent: %+v", rec)
	}
	if rec[0].TraceID != fmt.Sprintf("%016x", uint64(0xabcd)) {
		t.Fatalf("trace id %q, want %016x", rec[0].TraceID, uint64(0xabcd))
	}

	// Ring wraps: newest first, bounded length.
	for i := 0; i < defSlowRingSize+10; i++ {
		l.Record("SCAN", 0, uint64(i), 0, 20*time.Millisecond)
	}
	rec = l.Recent()
	if len(rec) != defSlowRingSize {
		t.Fatalf("ring length %d, want %d", len(rec), defSlowRingSize)
	}
	if rec[0].Txn != uint64(defSlowRingSize+10-1) {
		t.Fatalf("newest entry txn %d, want %d", rec[0].Txn, defSlowRingSize+10-1)
	}

}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sias_h_total", "h", nil).Inc()
	slow := NewSlowOpLog(time.Millisecond, nil)
	slow.Record("COMMIT", 1, 42, 0xbeef, 30*time.Millisecond)
	tracer := NewTracer(1)
	defer tracer.Close()
	sp := tracer.StartSpan(tracer.NewContext(), "COMMIT")
	child := tracer.StartSpan(sp.Context(), "route")
	child.SetShard(0)
	child.Annotate("shards", "2")
	child.Finish()
	sp.Finish()
	var readyErr error
	h := Handler(reg, slow, tracer, func() error { return readyErr })

	srv := httptest.NewServer(h)
	defer srv.Close()

	resp := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(resp.body, "sias_h_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", resp.body)
	}
	if !strings.HasPrefix(resp.contentType, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", resp.contentType)
	}
	if got := httpGet(t, srv.URL+"/healthz"); got.status != 200 || got.body != "ok\n" {
		t.Fatalf("/healthz = %d %q", got.status, got.body)
	}
	readyErr = errors.New("draining")
	if got := httpGet(t, srv.URL+"/healthz"); got.status != 503 {
		t.Fatalf("/healthz while unready = %d, want 503", got.status)
	}
	if got := httpGet(t, srv.URL+"/debug/slowops"); got.status != 200 ||
		!strings.Contains(got.body, "threshold_ms=1") || !strings.Contains(got.body, "trace=000000000000beef") {
		t.Fatalf("/debug/slowops = %d %q", got.status, got.body)
	}
	var slowDoc struct {
		ThresholdMs int64    `json:"threshold_ms"`
		RingSize    int      `json:"ring_size"`
		Total       int      `json:"total"`
		Recent      []SlowOp `json:"recent"`
	}
	got := httpGet(t, srv.URL+"/debug/slowops?format=json")
	if got.status != 200 || !strings.HasPrefix(got.contentType, "application/json") {
		t.Fatalf("/debug/slowops?format=json = %d %q", got.status, got.contentType)
	}
	if err := json.Unmarshal([]byte(got.body), &slowDoc); err != nil {
		t.Fatalf("slowops json: %v\n%s", err, got.body)
	}
	if slowDoc.ThresholdMs != 1 || slowDoc.Total != 1 || len(slowDoc.Recent) != 1 ||
		slowDoc.Recent[0].Op != "COMMIT" || slowDoc.Recent[0].TraceID != "000000000000beef" {
		t.Fatalf("slowops json doc: %+v", slowDoc)
	}
	if got := httpGet(t, srv.URL+"/debug/pprof/"); got.status != 200 {
		t.Fatalf("/debug/pprof/ = %d", got.status)
	}

	// /debug/traces: one trace holding both spans, parent link intact.
	tracer.Drain()
	var traceDoc struct {
		SpansTotal int64 `json:"spans_total"`
		Traces     []struct {
			TraceID string `json:"trace_id"`
			Spans   []struct {
				SpanID      string            `json:"span_id"`
				ParentID    string            `json:"parent_span_id"`
				Name        string            `json:"name"`
				Shard       int               `json:"shard"`
				Annotations map[string]string `json:"annotations"`
			} `json:"spans"`
		} `json:"traces"`
	}
	got = httpGet(t, srv.URL+"/debug/traces")
	if got.status != 200 {
		t.Fatalf("/debug/traces = %d %q", got.status, got.body)
	}
	if err := json.Unmarshal([]byte(got.body), &traceDoc); err != nil {
		t.Fatalf("traces json: %v\n%s", err, got.body)
	}
	if traceDoc.SpansTotal != 2 || len(traceDoc.Traces) != 1 || len(traceDoc.Traces[0].Spans) != 2 {
		t.Fatalf("traces doc: %+v\n%s", traceDoc, got.body)
	}
	spans := traceDoc.Traces[0].Spans
	if spans[0].Name != "COMMIT" || spans[0].ParentID != "" {
		t.Fatalf("root span: %+v", spans[0])
	}
	if spans[1].Name != "route" || spans[1].ParentID != spans[0].SpanID ||
		spans[1].Shard != 0 || spans[1].Annotations["shards"] != "2" {
		t.Fatalf("child span: %+v", spans[1])
	}

	// Filters: op match, op miss, trace-id match, bad trace id.
	if got := httpGet(t, srv.URL+"/debug/traces?op=route"); !strings.Contains(got.body, "\"route\"") {
		t.Fatalf("op=route filter dropped the trace: %s", got.body)
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/traces?op=nonesuch").body), &traceDoc); err != nil {
		t.Fatal(err)
	}
	if len(traceDoc.Traces) != 0 {
		t.Fatalf("op=nonesuch matched %d traces", len(traceDoc.Traces))
	}
	if got := httpGet(t, srv.URL+"/debug/traces?trace="+fmt.Sprintf("%016x", sp.TraceID())); !strings.Contains(got.body, "\"COMMIT\"") {
		t.Fatalf("trace filter dropped the trace: %s", got.body)
	}
	if got := httpGet(t, srv.URL+"/debug/traces?trace=zzz"); got.status != 400 {
		t.Fatalf("bad trace id = %d, want 400", got.status)
	}
}

type httpResp struct {
	status      int
	body        string
	contentType string
}

func httpGet(t *testing.T, url string) httpResp {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpResp{status: resp.StatusCode, body: string(body), contentType: resp.Header.Get("Content-Type")}
}
