package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/obs"
	"sias/internal/server"
	"sias/internal/shard"
)

type webResp struct {
	status int
	body   string
}

func httpGet(t *testing.T, url string) webResp {
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
	return webResp{status: resp.StatusCode, body: string(body)}
}

// tracesDoc mirrors the /debug/traces JSON document.
type tracesDoc struct {
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

// twoShardKeys returns the lowest key homed on each shard of a 2-shard router.
func twoShardKeys() (k0, k1 int64) {
	k0, k1 = -1, -1
	for k := int64(0); k0 < 0 || k1 < 0; k++ {
		switch {
		case shard.Of(k, 2) == 0 && k0 < 0:
			k0 = k
		case shard.Of(k, 2) == 1 && k1 < 0:
			k1 = k
		}
	}
	return k0, k1
}

// TestDistributedTraceCrossShard drives one client-sampled cross-shard
// commit through a 2-shard server and asserts the wire-propagated trace
// stitches end to end: the session op span, a prepare span per 2PC
// participant other than the coordinator, the coordinator's decide span with
// its WAL-fsync annotation,
// all under the single trace id the client minted — and that the trace
// counters in the STATS frame match /metrics exactly.
func TestDistributedTraceCrossShard(t *testing.T) {
	reg := obs.NewRegistry()
	slow := obs.NewSlowOpLog(time.Hour, nil)
	// Server-side sampling off: the only sampled request is the one whose
	// context the client carries over the wire, so the retained trace is
	// exactly the cross-shard transaction below.
	tracer := obs.NewTracer(0)
	_, addr := startServer(t, memRouter(t, 2), func(cfg *server.Config) {
		cfg.Obs = reg
		cfg.SlowOps = slow
		cfg.Tracer = tracer
	})

	c, err := client.Dial(addr, client.Options{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One key per shard makes the commit a two-participant 2PC.
	k0, k1 := twoShardKeys()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	web := httptest.NewServer(obs.Handler(reg, slow, tracer, nil))
	defer web.Close()
	resp := httpGet(t, web.URL+"/debug/traces")
	if resp.status != 200 {
		t.Fatalf("/debug/traces = %d %q", resp.status, resp.body)
	}
	var doc tracesDoc
	if err := json.Unmarshal([]byte(resp.body), &doc); err != nil {
		t.Fatalf("traces json: %v\n%s", err, resp.body)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("retained %d traces, want exactly the sampled transaction\n%s", len(doc.Traces), resp.body)
	}
	tr := doc.Traces[0]

	spanIDs := map[string]string{} // name -> span id (for unique names)
	count := map[string]int{}
	prepShards := map[int]bool{}
	var routeID string
	for _, sp := range tr.Spans {
		count[sp.Name]++
		spanIDs[sp.Name] = sp.SpanID
		if sp.Name == "route" {
			routeID = sp.SpanID
		}
		if sp.Name == "prepare" {
			prepShards[sp.Shard] = true
		}
	}
	// The session op span plus the full 2PC pipeline, one prepare per
	// participant but the coordinator, whose decision is its prepare.
	for name, want := range map[string]int{"BEGIN": 1, "COMMIT": 1, "route": 1, "prepare": 1, "decide": 1, "outcome": 1} {
		if count[name] != want {
			t.Errorf("span %q appears %d times, want %d\n%s", name, count[name], want, resp.body)
		}
	}
	if prepShards[0] || !prepShards[1] {
		t.Errorf("prepare spans pinned to shards %v, want only the participant, shard 1", prepShards)
	}
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "COMMIT":
			if sp.ParentID != "" {
				t.Errorf("COMMIT span has parent %s, want the wire-carried root", sp.ParentID)
			}
		case "route":
			if sp.ParentID != spanIDs["COMMIT"] {
				t.Errorf("route parent = %s, want the COMMIT span %s", sp.ParentID, spanIDs["COMMIT"])
			}
			if sp.Annotations["shards"] != "2" || sp.Annotations["writers"] != "2" {
				t.Errorf("route span annotations = %v, want shards=2 writers=2", sp.Annotations)
			}
		case "prepare":
			if sp.ParentID != routeID {
				t.Errorf("prepare parent = %s, want the route span %s", sp.ParentID, routeID)
			}
			if sp.Annotations["wal_fsync"] != "forced" {
				t.Errorf("prepare span missing wal_fsync=forced: %v", sp.Annotations)
			}
		case "decide":
			if sp.ParentID != routeID {
				t.Errorf("decide parent = %s, want the route span %s", sp.ParentID, routeID)
			}
			if sp.Annotations["wal_fsync"] != "commit-point" {
				t.Errorf("decide span missing wal_fsync=commit-point: %v", sp.Annotations)
			}
		case "outcome":
			// The coordinator's outcome rode the decide flush; the outcome
			// round covers the one other participant.
			if sp.Annotations["participants"] != "1" {
				t.Errorf("outcome span participants = %v, want 1", sp.Annotations)
			}
			// Its outcome record is appended, not forced.
			if sp.Annotations["wal_fsync"] != "lazy" {
				t.Errorf("outcome span missing wal_fsync=lazy: %v", sp.Annotations)
			}
		}
	}

	// Counters: the STATS frame and /metrics must agree exactly, and both
	// must match what the endpoint reported.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil {
		t.Fatal("STATS frame has no trace section with a tracer configured")
	}
	if st.Trace.Spans != doc.SpansTotal {
		t.Fatalf("STATS trace %d spans, /debug/traces reported %d", st.Trace.Spans, doc.SpansTotal)
	}
	metrics := httpGet(t, web.URL+"/metrics")
	if want := fmt.Sprintf("sias_trace_spans_total %d\n", st.Trace.Spans); !strings.Contains(metrics.body, want) {
		t.Errorf("exposition missing %q", want)
	}
	if st.Trace.Spans < int64(len(tr.Spans)) {
		t.Errorf("spans_total %d < spans in the retained trace %d", st.Trace.Spans, len(tr.Spans))
	}
}

// TestTraceReadOnlyCommitSkipsFlushStages: the route span says how many of
// the touched shards were written, and the stages under it follow from that
// number alone — none for a transaction that only read two shards (no 2PC
// phase, no fsync), exactly the single-shard group-commit flush for one
// that wrote on one shard and read the other.
func TestTraceReadOnlyCommitSkipsFlushStages(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	_, addr := startServer(t, memRouter(t, 2), func(cfg *server.Config) {
		cfg.Obs = reg
		cfg.Tracer = tracer
	})
	c, err := client.Dial(addr, client.Options{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k0, k1 := twoShardKeys()
	run := func(body func(tx *client.Tx) error) {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := body(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run(func(tx *client.Tx) error { // writers=2: seeds both keys
		if err := tx.Insert(k0, []byte("a")); err != nil {
			return err
		}
		return tx.Insert(k1, []byte("b"))
	})
	run(func(tx *client.Tx) error { // writers=0
		if _, err := tx.Get(k0); err != nil {
			return err
		}
		_, err := tx.Get(k1)
		return err
	})
	run(func(tx *client.Tx) error { // writers=1
		if _, err := tx.Get(k1); err != nil {
			return err
		}
		return tx.Update(k0, []byte("c"))
	})

	web := httptest.NewServer(obs.Handler(reg, nil, tracer, nil))
	defer web.Close()
	resp := httpGet(t, web.URL+"/debug/traces")
	var doc tracesDoc
	if err := json.Unmarshal([]byte(resp.body), &doc); err != nil {
		t.Fatalf("traces json: %v\n%s", err, resp.body)
	}
	stagesByWriters := map[string]map[string]int{}
	for _, tr := range doc.Traces {
		stages := map[string]int{}
		writers, route := "", ""
		for _, sp := range tr.Spans {
			if sp.Name == "route" {
				writers, route = sp.Annotations["writers"], sp.SpanID
				if sp.Annotations["shards"] != "2" {
					t.Errorf("route span annotations = %v, want shards=2", sp.Annotations)
				}
			}
		}
		// Every span under the route span is a commit stage, whatever its name.
		for _, sp := range tr.Spans {
			if route != "" && sp.ParentID == route {
				stages[sp.Name]++
			}
		}
		stagesByWriters[writers] = stages
	}
	if got := stagesByWriters["0"]; got == nil || len(got) != 0 {
		t.Errorf("read-only commit recorded stages %v, want a route span with writers=0 and nothing under it\n%s", got, resp.body)
	}
	if got := stagesByWriters["1"]; len(got) != 1 || got["fsync"] != 1 {
		t.Errorf("one-writer commit recorded stages %v, want exactly the group-commit fsync\n%s", got, resp.body)
	}
	if got := stagesByWriters["2"]; got["prepare"] != 1 || got["decide"] != 1 || got["outcome"] != 1 {
		t.Errorf("two-writer commit recorded stages %v, want the full 2PC pipeline", got)
	}
}

// TestObservedServerLeavesNoGoroutine serves fully traced cross-shard
// transactions on a server with every observer attached — registry, slow-op
// log and a tracer sampling everything — and checks that once the client
// hangs up and Shutdown returns, the goroutine count settles back to where
// it was before the tracer and server existed: observing starts nothing that
// outlives the server, and there is no teardown call to forget.
func TestObservedServerLeavesNoGoroutine(t *testing.T) {
	r := memRouter(t, 2)
	before := runtime.NumGoroutine()
	srv, addr := startServer(t, r, func(cfg *server.Config) {
		cfg.Obs = obs.NewRegistry()
		cfg.SlowOps = obs.NewSlowOpLog(time.Hour, nil)
		cfg.Tracer = obs.NewTracer(1)
	})

	c, err := client.Dial(addr, client.Options{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One key per shard: the first commit inserts both, the rest update
	// them, so each is a traced two-participant 2PC.
	k0, k1 := twoShardKeys()
	for i := 0; i < 8; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		write := tx.Update
		if i == 0 {
			write = tx.Insert
		}
		if err := write(k0, []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := write(k1, []byte("b")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := c.Stats(); err != nil || st.Trace == nil || st.Trace.Spans == 0 {
		t.Fatalf("STATS trace section %+v (err %v) after traced commits", st, err)
	}
	c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Shutdown, %d before the server started:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
