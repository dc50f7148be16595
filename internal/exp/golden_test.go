package exp

import (
	"flag"
	"os"
	"testing"

	"sias/internal/engine"
	"sias/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the simulator")

// checkGolden fails unless got is the content of testdata/name, which -update
// rewrites from got first.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
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
		t.Errorf("%s moved (regenerate with -update only if that is intended):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTable1Golden pins the simulator: Table 1 at 2 warehouses and 40
// virtual seconds — exactly what `siasbench -exp table1 -wh 2 -dur 40`
// prints — must stay byte-identical. A change that moves a simulated number
// (a pool Get, its virtual-time charge, a transaction id, a WAL or page byte)
// shows up here; one that only makes the engine cheaper in wall time does
// not. Regenerate with -update only when a number is meant to move.
func TestTable1Golden(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Warehouses = 2
	cfg.Durations = []simclock.Duration{40 * simclock.Second}
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", FormatTable1(rows))
}

// TestBlocktraceGolden pins Figures 3 and 4 the same way: the block trace
// scatter and read/write totals of SIAS and of SI at 2 warehouses and 40
// virtual seconds, what `siasbench -exp fig3` (fig4) `-wh 2 -dur 40` prints.
// A shorter run leaves Figure 3 empty: SIAS under t2 writes its data pages
// at the first checkpoint, 30 s in.
func TestBlocktraceGolden(t *testing.T) {
	for _, fig := range []struct {
		name string
		kind engine.Kind
	}{
		{"fig3", engine.KindSIAS},
		{"fig4", engine.KindSI},
	} {
		t.Run(fig.name, func(t *testing.T) {
			cfg := DefaultBlocktraceConfig()
			cfg.Warehouses = 2
			cfg.Duration = 40 * simclock.Second
			_, got, err := RunBlocktrace(fig.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fig.name+".golden", got)
		})
	}
}

// TestTable2Golden pins Table 2, the HDD sweep: the paper's configuration
// (DefaultTable2Config) cut to warehouses {1, 2} and 2 virtual seconds, as
// `siasbench -exp table2` formats it. Figures 5 and 6 are the same sweep on
// the simulated SSD arrays; at a scale this test can afford they print the
// same rows on 2 and 6 SSDs, so they are left unpinned.
func TestTable2Golden(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Warehouses = []int{1, 2}
	cfg.Duration = 2 * simclock.Second
	pts, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", FormatSweep("Table 2: TPC-C on HDD — Throughput (NOTPM) and Response Time (sec.)", pts))
}
