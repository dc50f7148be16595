package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"
)

// Handler assembles the observability side-listener:
//
//	/metrics        Prometheus text exposition of reg
//	/healthz        200 "ok" while ready() returns nil, else 503 with the error
//	/debug/slowops  tail of the slow-op ring, newest first (text; ?format=json)
//	/debug/traces   retained trace spans grouped by trace id (JSON;
//	                ?trace=<hexid> ?op=<name> ?min_ms=<n> ?limit=<n>)
//	/debug/pprof/*  net/http/pprof (profile, heap, goroutine, trace, ...)
//
// It registers pprof on its own mux rather than importing the package for
// its DefaultServeMux side effect, so the main wire listener never exposes
// profiling endpoints. ready, slow and tracer may be nil.
func Handler(reg *Registry, slow *SlowOpLog, tracer *Tracer, ready func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if ready != nil {
			if err := ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, r *http.Request) { serveSlowOps(w, r, slow) })
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) { serveTraces(w, r, tracer) })
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveSlowOps renders the slow-op ring: a human-readable table by default,
// the machine document with ?format=json.
func serveSlowOps(w http.ResponseWriter, r *http.Request, slow *SlowOpLog) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			ThresholdMs int64    `json:"threshold_ms"`
			RingSize    int      `json:"ring_size"`
			Total       int      `json:"total"`
			Recent      []SlowOp `json:"recent"`
		}{slow.Threshold().Milliseconds(), slow.RingSize(), slow.Total(), slow.Recent()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "slow ops: threshold_ms=%d ring_size=%d total=%d (newest first; ?format=json)\n",
		slow.Threshold().Milliseconds(), slow.RingSize(), slow.Total())
	for _, e := range slow.Recent() {
		trace := e.TraceID
		if trace == "" {
			trace = "-"
		}
		fmt.Fprintf(w, "%s op=%s shard=%d txn=%d trace=%s dur=%.1fms\n",
			e.Time.Format(time.RFC3339Nano), e.Op, e.Shard, e.Txn, trace, e.DurationMs)
	}
}

// spanJSON is one span in the /debug/traces document.
type spanJSON struct {
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_span_id,omitempty"`
	Name        string            `json:"name"`
	Shard       int               `json:"shard"` // -1: not pinned to a shard
	Start       time.Time         `json:"start"`
	DurationMs  float64           `json:"duration_ms"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// traceJSON is one trace: its spans sorted by start time.
type traceJSON struct {
	TraceID    string     `json:"trace_id"`
	Start      time.Time  `json:"start"`
	DurationMs float64    `json:"duration_ms"` // earliest start to latest end
	Spans      []spanJSON `json:"spans"`
}

// serveTraces groups the retained spans by trace id, applies the query
// filters and renders newest-first.
func serveTraces(w http.ResponseWriter, r *http.Request, tracer *Tracer) {
	q := r.URL.Query()
	var wantTrace uint64
	if v := q.Get("trace"); v != "" {
		id, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			http.Error(w, "bad trace id (want hex): "+v, http.StatusBadRequest)
			return
		}
		wantTrace = id
	}
	wantOp := q.Get("op")
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "bad min_ms: "+v, http.StatusBadRequest)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit: "+v, http.StatusBadRequest)
			return
		}
		limit = n
	}

	byTrace := map[uint64][]SpanRecord{}
	for _, rec := range tracer.Snapshot() {
		if wantTrace != 0 && rec.TraceID != wantTrace {
			continue
		}
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	traces := make([]traceJSON, 0, len(byTrace))
	for id, recs := range byTrace {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
		start, end := recs[0].Start, recs[0].Start
		opMatch := wantOp == ""
		spans := make([]spanJSON, 0, len(recs))
		for _, rec := range recs {
			if rec.Name == wantOp {
				opMatch = true
			}
			if e := rec.Start.Add(rec.Duration); e.After(end) {
				end = e
			}
			sj := spanJSON{
				SpanID:      fmt.Sprintf("%016x", rec.SpanID),
				Name:        rec.Name,
				Shard:       rec.Shard,
				Start:       rec.Start,
				DurationMs:  float64(rec.Duration) / float64(time.Millisecond),
				Annotations: rec.Annotations,
			}
			if rec.ParentID != 0 {
				sj.ParentID = fmt.Sprintf("%016x", rec.ParentID)
			}
			spans = append(spans, sj)
		}
		if !opMatch || end.Sub(start) < minDur {
			continue
		}
		traces = append(traces, traceJSON{
			TraceID:    fmt.Sprintf("%016x", id),
			Start:      start,
			DurationMs: float64(end.Sub(start)) / float64(time.Millisecond),
			Spans:      spans,
		})
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start.After(traces[j].Start) })
	if len(traces) > limit {
		traces = traces[:limit]
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		SpansTotal int64       `json:"spans_total"`
		Traces     []traceJSON `json:"traces"`
	}{tracer.Spans(), traces})
}
