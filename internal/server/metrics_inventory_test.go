package server_test

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/repl"
	"sias/internal/server"
	"sias/internal/shard"
)

var updateInventory = flag.Bool("update-inventory", false, "rewrite testdata/metrics_inventory.golden from the live registry")

// instrumented is the Config mutation every metrics test shares: registry,
// slow-op log with a threshold no op reaches, and a tracer.
func instrumented(t testing.TB, reg *obs.Registry) func(*server.Config) {
	tracer := obs.NewTracer(1)
	return func(cfg *server.Config) {
		cfg.Obs = reg
		cfg.SlowOps = obs.NewSlowOpLog(time.Hour, nil)
		cfg.Tracer = tracer
	}
}

// inventory reduces an exposition to one line per family — name, TYPE, HELP
// and the sorted label keys its series carry (le excluded) — merging the
// label keys seen into fams.
func inventory(t *testing.T, text string, fams map[string]map[string]bool, head map[string]string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	var name, help string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ = strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
		case strings.HasPrefix(line, "# TYPE "):
			typ := strings.TrimPrefix(line, "# TYPE "+name+" ")
			head[name] = fmt.Sprintf("%s %s %q", name, typ, help)
			if fams[name] == nil {
				fams[name] = map[string]bool{}
			}
		default:
			open := strings.IndexByte(line, '{')
			if open < 0 {
				continue
			}
			labels := line[open+1 : strings.LastIndexByte(line, '}')]
			for _, kv := range strings.Split(labels, `",`) {
				if k, _, ok := strings.Cut(kv, "="); ok && k != "le" {
					fams[name][k] = true
				}
			}
		}
	}
}

// TestMetricsInventoryGolden pins the exported surface: every family's
// name, TYPE, HELP string and label keys, from a 3-shard primary with a
// live subscriber plus the 3-shard follower front end that subscribes to
// it. The golden file was generated before the families moved onto struct
// tags; a family is added to it only in the commit that adds the family.
func TestMetricsInventoryGolden(t *testing.T) {
	preg, freg := obs.NewRegistry(), obs.NewRegistry()
	psrv, paddr := startServer(t, memRouter(t, 3), instrumented(t, preg))

	fshards := make([]shard.Shard, 3)
	facades := make([]*engine.Facade, 3)
	for i := range fshards {
		db, err := engine.Open(engine.DefaultOptions(device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14)))
		if err != nil {
			t.Fatal(err)
		}
		db.SetReplica(true)
		tab, _, err := db.CreateTable(0, "kv", kvSchema(), "k")
		if err != nil {
			t.Fatal(err)
		}
		fshards[i] = shard.Shard{Facade: engine.NewFacade(db), Table: tab}
		facades[i] = fshards[i].Facade
	}
	f, err := repl.NewFollower(repl.Config{PrimaryAddr: paddr, Announce: "follower:1", Shards: facades, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	t.Cleanup(f.Stop)
	mut := instrumented(t, freg)
	startServer(t, routerOf(t, fshards...), func(cfg *server.Config) {
		mut(cfg)
		cfg.Replica = f
	})
	for deadline := time.Now().Add(10 * time.Second); psrv.Stats().Subscribers == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	fams, head := map[string]map[string]bool{}, map[string]string{}
	for _, reg := range []*obs.Registry{preg, freg} {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		inventory(t, sb.String(), fams, head)
	}
	var lines []string
	for name, keys := range fams {
		ks := make([]string, 0, len(keys))
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		lines = append(lines, fmt.Sprintf("%s [%s]", head[name], strings.Join(ks, ",")))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/metrics_inventory.golden"
	if *updateInventory {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantSet := map[string]bool{}
		for _, l := range strings.Split(string(want), "\n") {
			wantSet[l] = true
		}
		for _, l := range lines {
			if !wantSet[l] {
				t.Errorf("not in golden: %s", l)
			}
			delete(wantSet, l)
		}
		for l := range wantSet {
			if l != "" {
				t.Errorf("golden only:   %s", l)
			}
		}
	}
}

// BenchmarkMetricsScrape is the cost of one /metrics scrape of an idle
// 4-shard in-memory server: the observability layer's own budget line.
func BenchmarkMetricsScrape(b *testing.B) {
	reg := obs.NewRegistry()
	cfg := server.Config{Router: memRouter(b, 4)}
	instrumented(b, reg)(&cfg)
	if _, err := server.New(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
