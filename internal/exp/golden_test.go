package exp

import (
	"flag"
	"os"
	"testing"

	"sias/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite testdata/table1.golden from the simulator")

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
	got := FormatTable1(rows)

	const path = "testdata/table1.golden"
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
		t.Errorf("Table 1 moved (regenerate with -update only if that is intended):\n got:\n%s\nwant:\n%s", got, want)
	}
}
