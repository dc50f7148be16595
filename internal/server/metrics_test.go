package server_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/obs"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/tuple"
)

// TestMetricsMatchStatsFrame runs traffic against an instrumented sharded
// server and asserts the /metrics exposition and the STATS wire frame report
// identical counters — the single-source-of-truth property the collected
// families exist for.
func TestMetricsMatchStatsFrame(t *testing.T) {
	reg := obs.NewRegistry()
	slow := obs.NewSlowOpLog(time.Hour, nil) // threshold no op ever reaches
	tracer := obs.NewTracer(1, 0)            // every data op traced
	t.Cleanup(tracer.Close)
	r := memRouter(t, 3)
	_, addr := startServer(t, r, func(cfg *server.Config) {
		cfg.Obs = reg
		cfg.SlowOps = slow
		cfg.Tracer = tracer
	})

	c, err := client.Dial(addr, client.Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := int64(0); i < 200; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(i, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get(i); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Readers, so the read-only commit family is live: they log nothing and
	// must not be mistaken for group-commit wins.
	const readOnlyTxns = 7
	for i := int64(0); i < readOnlyTxns; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get(i); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// One cross-shard commit so the 2PC families are live.
	{
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var k0, k1 int64 = -1, -1
		for k := int64(1000); k0 < 0 || k1 < 0; k++ {
			switch {
			case shard.Of(k, 3) == 0 && k0 < 0:
				k0 = k
			case shard.Of(k, 3) == 1 && k1 < 0:
				k1 = k
			}
		}
		if err := tx.Insert(k0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(k1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Catalog traffic so the index counters and per-table gauges are live.
	if err := c.CreateTable("orders", ordersSchema(), "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("orders", "by_customer", "customer"); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 40; i++ {
		if err := tx.InsertRow("orders", tuple.Row{i, i % 4, "m"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.IndexLookup("orders", "by_customer", 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Per-shard engine commits, and the read-only ones among them: exact
	// equality, series by series.
	var readOnly int64
	for i, sh := range st.Shards {
		readOnly += sh.ReadOnlyCommits
		for _, want := range []string{
			fmt.Sprintf("sias_engine_commits_total{shard=%q} %d\n", fmt.Sprint(i), sh.Commits),
			fmt.Sprintf("sias_engine_readonly_commits_total{shard=%q} %d\n", fmt.Sprint(i), sh.ReadOnlyCommits),
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %q", want)
			}
		}
	}
	if readOnly != readOnlyTxns || st.Engine.ReadOnlyCommits != readOnly {
		t.Errorf("read-only commits: shards sum to %d, aggregate says %d, want %d", readOnly, st.Engine.ReadOnlyCommits, readOnlyTxns)
	}
	// Secondary index counters and per-table gauges: exact equality against
	// the same STATS snapshot, series by series. The typed traffic above
	// guarantees they are nonzero.
	var lookups, inserts int64
	for i, sh := range st.Shards {
		shard := fmt.Sprint(i)
		lookups += sh.IndexLookups
		inserts += sh.IndexInserts
		for _, wantLine := range []string{
			fmt.Sprintf("sias_index_lookups_total{shard=%q} %d\n", shard, sh.IndexLookups),
			fmt.Sprintf("sias_index_inserts_total{shard=%q} %d\n", shard, sh.IndexInserts),
		} {
			if !strings.Contains(text, wantLine) {
				t.Errorf("exposition missing %q", wantLine)
			}
		}
		for _, ts := range sh.Tables {
			for _, wantLine := range []string{
				fmt.Sprintf("sias_table_rows{shard=%q,table=%q} %d\n", shard, ts.Name, ts.Rows),
				fmt.Sprintf("sias_table_indexes{shard=%q,table=%q} %d\n", shard, ts.Name, ts.Indexes),
				fmt.Sprintf("sias_table_index_entries{shard=%q,table=%q} %d\n", shard, ts.Name, ts.IndexEntries),
			} {
				if !strings.Contains(text, wantLine) {
					t.Errorf("exposition missing %q", wantLine)
				}
			}
		}
	}
	if lookups == 0 || inserts == 0 {
		t.Errorf("index counters flat after typed traffic: lookups=%d inserts=%d", lookups, inserts)
	}
	// Async read-path pool families: exact equality against the same STATS
	// snapshot, series by series. At rest the gauge must read 0 and the
	// counters whatever the run accumulated.
	for i, sh := range st.Shards {
		shard := fmt.Sprint(i)
		if sh.Pool.IOPending != 0 {
			t.Errorf("shard %s: io_pending = %d at rest, want 0", shard, sh.Pool.IOPending)
		}
		for _, wantLine := range []string{
			fmt.Sprintf("sias_pool_io_pending{shard=%q} %d\n", shard, sh.Pool.IOPending),
			fmt.Sprintf("sias_pool_read_waits_total{shard=%q} %d\n", shard, sh.Pool.ReadWaits),
			fmt.Sprintf("sias_pool_prefetch_issued_total{shard=%q} %d\n", shard, sh.Pool.PrefetchIssued),
			fmt.Sprintf("sias_pool_prefetch_coalesced_total{shard=%q} %d\n", shard, sh.Pool.PrefetchCoalesced),
			fmt.Sprintf("sias_pool_prefetch_wasted_total{shard=%q} %d\n", shard, sh.Pool.PrefetchWasted),
		} {
			if !strings.Contains(text, wantLine) {
				t.Errorf("exposition missing %q", wantLine)
			}
		}
	}
	// The singleflight wait histogram is an injected per-shard instrument:
	// its families must expose HELP/TYPE even with no observations.
	if !strings.Contains(text, "# TYPE sias_pool_read_wait_seconds histogram") {
		t.Error("sias_pool_read_wait_seconds family absent")
	}
	// 2PC families: router-level outcomes and per-shard participant counters
	// match the STATS frame exactly; the cross-shard commit above makes them
	// nonzero and the in-doubt resolution counters stay flat without a crash.
	if st.Router.TwoPCCommits == 0 {
		t.Error("TwoPCCommits flat after a cross-shard commit")
	}
	for _, want := range []string{
		fmt.Sprintf("sias_2pc_commits_total %d\n", st.Router.TwoPCCommits),
		fmt.Sprintf("sias_2pc_aborts_total{reason=%q} %d\n", "prepare", st.Router.TwoPCAbortPrepare),
		fmt.Sprintf("sias_2pc_indoubt_total %d\n", st.Router.TwoPCInDoubt),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	var prepares int64
	for i, sh := range st.Shards {
		prepares += sh.Prepares
		if sh.InDoubtCommits != 0 || sh.InDoubtAborts != 0 {
			t.Errorf("shard %d: in-doubt resolution ran without a crash: commits=%d aborts=%d",
				i, sh.InDoubtCommits, sh.InDoubtAborts)
		}
		for _, wantLine := range []string{
			fmt.Sprintf("sias_engine_prepares_total{shard=%q} %d\n", fmt.Sprint(i), sh.Prepares),
			fmt.Sprintf("sias_engine_indoubt_commits_total{shard=%q} %d\n", fmt.Sprint(i), sh.InDoubtCommits),
			fmt.Sprintf("sias_engine_indoubt_aborts_total{shard=%q} %d\n", fmt.Sprint(i), sh.InDoubtAborts),
		} {
			if !strings.Contains(text, wantLine) {
				t.Errorf("exposition missing %q", wantLine)
			}
		}
	}
	if prepares < 2 {
		t.Errorf("engine prepares = %d after a two-participant 2PC commit, want >= 2", prepares)
	}
	if !strings.Contains(text, "# TYPE sias_2pc_prepare_seconds histogram") {
		t.Error("sias_2pc_prepare_seconds family absent")
	}
	// Server-layer counters.
	for _, want := range []string{
		fmt.Sprintf("sias_server_requests_total %d\n", st.Server.Requests),
		fmt.Sprintf("sias_server_connections_total %d\n", st.Server.Connections),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Histograms observed real traffic and the STATS frame summarizes the
	// same instruments.
	hists, err := obs.ParseHistograms(text)
	if err != nil {
		t.Fatal(err)
	}
	// 200 kv transactions + 7 readers + 1 cross-shard + 1 typed-row transaction.
	commit := hists[`sias_server_op_seconds{op="COMMIT"}`]
	if commit == nil || commit.Count != 209 {
		t.Fatalf("COMMIT histogram count = %v, want 209", commit)
	}
	if st.Ops["COMMIT"].Count != commit.Count {
		t.Fatalf("STATS Ops[COMMIT].Count = %d, exposition has %d", st.Ops["COMMIT"].Count, commit.Count)
	}
	var fsync int64
	for key, p := range hists {
		if strings.HasPrefix(key, "sias_wal_fsync_seconds") {
			fsync += p.Count
		}
	}
	// Every commit flush writes pages and is observed; maintenance flushes
	// may add more, so the histogram bounds the commit-flush counter from
	// above.
	var flushes int64
	for _, sh := range st.Shards {
		flushes += sh.CommitFlushes
	}
	if flushes == 0 || fsync < flushes {
		t.Fatalf("WAL fsync observations = %d, want >= commit flushes = %d (> 0)", fsync, flushes)
	}
	// Trace counters: the STATS frame and the exposition read the same
	// tracer, and every data op above was sampled so spans accumulated.
	if st.Trace == nil || st.Trace.Spans == 0 {
		t.Fatalf("trace section = %+v after fully-sampled traffic", st.Trace)
	}
	for _, want := range []string{
		fmt.Sprintf("sias_trace_spans_total %d\n", st.Trace.Spans),
		fmt.Sprintf("sias_trace_dropped_total %d\n", st.Trace.Dropped),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Repl families must expose HELP/TYPE even on a primary (CI greps them).
	if !strings.Contains(text, "# TYPE sias_repl_lag_records gauge") {
		t.Error("sias_repl_lag_records family absent on a primary")
	}
	if slow.Total() != 0 {
		t.Errorf("slow-op log recorded %d ops under an unreachable threshold", slow.Total())
	}
}
