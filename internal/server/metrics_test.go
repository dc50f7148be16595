package server_test

import (
	"fmt"
	"strconv"
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
	tracer := obs.NewTracer(1)               // every data op traced
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
	if _, err := tx.IndexRange("orders", "by_customer", 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The cross-shard commits left their participants' outcome records to a
	// lazy flush, which would move the WAL counters between the two reads
	// below: wait for every shard to report nothing pending first.
	var st server.StatsReply
	for deadline := time.Now().Add(5 * time.Second); ; {
		if st, err = c.Stats(); err != nil {
			t.Fatal(err)
		}
		pending := int64(0)
		for _, sh := range st.Shards {
			pending += sh.WALPendingBytes
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d WAL bytes still pending across the shards after 5s", pending)
		}
		time.Sleep(time.Millisecond)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Every tagged leaf of the STATS reply, walked the way a scrape walks it,
	// is an exposition line with exactly that value — not a hand-picked list
	// of families, so a counter added to any stats struct is covered here
	// without touching this test.
	exposed := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if series, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			exposed[series] = val
		}
	}
	leaves := 0
	obs.Samples(st, func(name, labels string, v float64) {
		leaves++
		got, ok := exposed[name+labels]
		if f, err := strconv.ParseFloat(got, 64); !ok || err != nil || f != v {
			t.Errorf("STATS has %s%s = %v, exposition has %q", name, labels, v, got)
		}
	})
	// 3 shards x (38 engine/pool/device leaves + pool stripes + 2 tables x
	// 11) + 15 server, router and trace leaves; a collapse of the walk must
	// not pass.
	if leaves < 200 {
		t.Errorf("walked only %d tagged leaves of the STATS reply", leaves)
	}
	// One literal line per label shape, so the rendering itself is pinned
	// independently of the walker.
	for _, want := range []string{
		fmt.Sprintf("sias_engine_commits_total{shard=\"0\"} %d\n", st.Shards[0].Commits),
		fmt.Sprintf("sias_device_writes_total{device=\"wal\",shard=\"1\"} %d\n", st.Shards[1].WALDevice.Writes),
		fmt.Sprintf("sias_table_rows{shard=\"2\",table=\"orders\"} %d\n", st.Shards[2].Tables[1].Rows),
		fmt.Sprintf("sias_pool_partition_evictions_total{partition=\"0\",shard=\"0\"} %d\n", st.Shards[0].Pool.PartitionEvictions[0]),
		fmt.Sprintf("sias_2pc_aborts_total{reason=\"prepare\"} %d\n", st.Router.TwoPCAbortPrepare),
		fmt.Sprintf("sias_server_requests_total %d\n", st.Server.Requests),
		fmt.Sprintf("sias_trace_dropped_total %d\n", st.Trace.Dropped),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The traffic above makes the families it was meant to exercise live.
	var readOnly, lookups, inserts, prepares, appends int64
	for i, sh := range st.Shards {
		readOnly += sh.ReadOnlyCommits
		lookups += sh.IndexLookups
		inserts += sh.IndexInserts
		prepares += sh.Prepares
		for _, ts := range sh.Tables {
			appends += ts.Appends
		}
		if sh.Pool.IOPending != 0 {
			t.Errorf("shard %d: io_pending = %d at rest, want 0", i, sh.Pool.IOPending)
		}
		if sh.InDoubtCommits != 0 || sh.InDoubtAborts != 0 {
			t.Errorf("shard %d: in-doubt resolution ran without a crash: commits=%d aborts=%d",
				i, sh.InDoubtCommits, sh.InDoubtAborts)
		}
	}
	if readOnly != readOnlyTxns || st.Engine.ReadOnlyCommits != readOnly {
		t.Errorf("read-only commits: shards sum to %d, aggregate says %d, want %d", readOnly, st.Engine.ReadOnlyCommits, readOnlyTxns)
	}
	if lookups == 0 || inserts == 0 {
		t.Errorf("index counters flat after typed traffic: lookups=%d inserts=%d", lookups, inserts)
	}
	if appends != 200+2+40 {
		t.Errorf("per-table appends sum to %d, want one per inserted row (242)", appends)
	}
	if st.Router.TwoPCCommits == 0 {
		t.Error("TwoPCCommits flat after a cross-shard commit")
	}
	if prepares < 2 {
		t.Errorf("engine prepares = %d after a two-participant 2PC commit, want >= 2", prepares)
	}
	// Injected histograms must expose HELP/TYPE even with no observations.
	for _, fam := range []string{"sias_pool_read_wait_seconds", "sias_2pc_prepare_seconds"} {
		if !strings.Contains(text, "# TYPE "+fam+" histogram") {
			t.Errorf("%s family absent", fam)
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
	// Repl families must expose HELP/TYPE even on a primary (CI greps them).
	if !strings.Contains(text, "# TYPE sias_repl_lag_records gauge") {
		t.Error("sias_repl_lag_records family absent on a primary")
	}
	if slow.Total() != 0 {
		t.Errorf("slow-op log recorded %d ops under an unreachable threshold", slow.Total())
	}
}
