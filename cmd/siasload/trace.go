package main

// Trace-breakdown reporting: after a -trace-sample run, the tool pulls the
// sampled traces back off the server's /debug/traces endpoint and summarizes
// span durations by stage name, turning the distributed spans into the
// commit-pipeline latency table printed next to the client-observed numbers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// traceStage is one span name's duration summary across the fetched traces.
type traceStage struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P99   float64 `json:"p99_ms"`
}

// traceBreakdown is the /debug/traces slice of the report: per-stage span
// latency over the sampled traces. Stage keys are span names — wire op names
// (BEGIN, COMMIT) plus the commit-pipeline stages (route, prepare, decide,
// outcome, fsync) and the follower's repl.apply.
type traceBreakdown struct {
	Traces int                   `json:"traces"`
	Stages map[string]traceStage `json:"stages"`
}

// scrapeTraces fetches up to limit recent traces from the server's
// observability listener and folds their spans into a per-stage breakdown.
// Returns nil (no error) when the server has no traces.
func scrapeTraces(addr string, limit int) (*traceBreakdown, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/traces?limit=%d", addr, limit))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/debug/traces: HTTP %d", addr, resp.StatusCode)
	}
	var env struct {
		Traces []struct {
			Spans []struct {
				Name       string  `json:"name"`
				DurationMs float64 `json:"duration_ms"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, err
	}
	if len(env.Traces) == 0 {
		return nil, nil
	}
	durs := map[string][]float64{}
	for _, t := range env.Traces {
		for _, s := range t.Spans {
			durs[s.Name] = append(durs[s.Name], s.DurationMs)
		}
	}
	bd := &traceBreakdown{Traces: len(env.Traces), Stages: map[string]traceStage{}}
	for name, ds := range durs {
		sort.Float64s(ds)
		bd.Stages[name] = traceStage{Count: int64(len(ds)), P50: pctF(ds, 50), P99: pctF(ds, 99)}
	}
	return bd, nil
}

func pctF(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// traceStageOrder lists the known commit-pipeline stages in execution order;
// printTraceBreakdown shows them first, then any other span names sorted.
var traceStageOrder = []string{
	"BEGIN", "COMMIT", "route", "prepare", "decide", "outcome",
	"fsync", "repl.apply",
}

func printTraceBreakdown(bd *traceBreakdown) {
	fmt.Printf("\nper-stage trace breakdown over %d sampled trace(s) (from /debug/traces):\n", bd.Traces)
	fmt.Printf("  %-10s %8s %9s %9s\n", "stage", "spans", "p50 ms", "p99 ms")
	printed := map[string]bool{}
	show := func(name string) {
		st, ok := bd.Stages[name]
		if !ok || printed[name] {
			return
		}
		printed[name] = true
		fmt.Printf("  %-10s %8d %9.3f %9.3f\n", name, st.Count, st.P50, st.P99)
	}
	for _, name := range traceStageOrder {
		show(name)
	}
	rest := make([]string, 0, len(bd.Stages))
	for name := range bd.Stages {
		if !printed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		show(name)
	}
}
