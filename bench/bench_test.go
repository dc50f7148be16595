package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/txn"
	"sias/internal/wal"
)

func quickConfig(t *testing.T) *config {
	return &config{seed: 1, seconds: 0.2, scale: 0.01, trace: true, dir: t.TempDir()}
}

// checkMetrics asserts that got holds exactly the declared metrics, once
// each, finite and with the declared unit.
func checkMetrics(t *testing.T, got []metric, decls []decl) {
	t.Helper()
	if len(got) != len(decls) {
		t.Fatalf("%d metrics emitted, %d declared", len(got), len(decls))
	}
	for i, d := range decls {
		m := got[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("metric %d is %s [%s], declared %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s is not finite", m.Name)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at 1/100 scale: in each episode
// open, preload, warm-up, measured phase, crash/recover rounds with
// verification and closing checkpoint, then the ladder and stand-alone drivers.
func TestWorkloadsEndToEnd(t *testing.T) {
	run := func(name string, fn func(*config) (*result, error)) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := fn(quickConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Error)
			}
			checkMetrics(t, res.EndToEnd, endToEnd)
			checkMetrics(t, res.PerLayer, perLayer)
			for _, m := range res.EndToEnd {
				// SIAS-t2 writes data pages at checkpoints only, and the 2
				// virtual seconds simulated here have none.
				if m.Value == 0 && !(name == simName && m.Name == "write_amp") {
					t.Errorf("end-to-end metric %s is 0 on %s", m.Name, name)
				}
			}
		})
	}
	for _, sp := range wireSpecs {
		run(sp.name, func(cfg *config) (*result, error) { return runWire(sp, cfg) })
	}
	run(simName, runSim)
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the declarations in
// metrics.go and workload.go from drifting.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if strings.Join(file.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", file.Command)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}

	type nameWhy struct{ name, why string }
	var want []nameWhy
	for _, sp := range wireSpecs {
		want = append(want, nameWhy{sp.name, sp.why})
	}
	want = append(want, nameWhy{simName, simWhy})
	if len(file.Workloads) != len(want) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(want))
	}
	for i, w := range want {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}

	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := file.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code declares %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := file.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code declares %+v", i, m, d)
		}
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, sp := range wireSpecs {
		a, b, c := streamHash(&sp, 1, 2000), streamHash(&sp, 1, 2000), streamHash(&sp, 2, 2000)
		if a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream hash %x", sp.name, a)
		}
	}
}

// TestVerifierCatchesPlantedFaults feeds the checks a wrong value, a stale
// value (a lost acknowledged write) and a duplicated scan row.
func TestVerifierCatchesPlantedFaults(t *testing.T) {
	sp := wireSpecs[0].scaled(0.05)
	or := newOracle(&sp)
	order := or.sorted()
	value := func(i int, seq uint64) []byte {
		v := make([]byte, sp.valueSize)
		encodeValue(v, or.keys[i], seq, or.owner(i))
		return v
	}
	const i = 7
	or.acked[i].Store(3)
	or.attempted[i].Store(3)

	if _, err := or.checkValue(value(i, 3), i, 3, 3); err != nil {
		t.Fatalf("the acknowledged version was rejected: %v", err)
	}
	for name, val := range map[string][]byte{
		"lost acknowledged write": value(i, 2),
		"never-written version":   value(i, 4),
		"another key's value":     value(i+1, 3),
		"truncated value":         value(i, 3)[:sp.valueSize-1],
		"corrupt payload":         append(value(i, 3)[:sp.valueSize-1], 0xFF),
	} {
		if _, err := or.checkValue(val, i, 3, 3); err == nil {
			t.Errorf("%s passed the check", name)
		}
	}

	rows := make([]client.KV, scanRows)
	lo := make([]uint64, scanRows)
	for j := range rows {
		rows[j] = client.KV{Key: or.keys[order[j]], Val: value(order[j], or.acked[order[j]].Load())}
		lo[j] = or.acked[order[j]].Load()
	}
	if err := or.checkScan(rows, order, 0, lo, nil); err != nil {
		t.Fatalf("a correct scan was rejected: %v", err)
	}
	dup := append([]client.KV(nil), rows...)
	dup[10] = dup[9]
	if err := or.checkScan(dup, order, 0, lo, nil); err == nil {
		t.Error("a scan with a duplicated row passed the check")
	}
	if err := or.checkScan(append(rows, rows[scanRows-1]), order, 0, lo, nil); err == nil {
		t.Error("a scan with one row too many passed the check")
	}
}

// TestLostWriteFailsTheRun plants a lost acknowledged write in a live
// deployment: the model believes one more commit than the store holds.
func TestLostWriteFailsTheRun(t *testing.T) {
	sp := wireSpecs[0].scaled(0.05)
	cfg := quickConfig(t)
	st, w, err := setUp(&sp, cfg, cfg.seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.kill()
	if v := w.verify(st.clientRungs()); v.failed != 0 {
		t.Fatalf("verification of an intact store failed: %v", v.firstErr)
	}
	w.or.acked[5].Add(1)
	w.or.attempted[5].Add(1)
	v := w.verify(st.clientRungs())
	if v.failed == 0 || v.firstErr == nil || !strings.Contains(v.firstErr.Error(), "lost write") {
		t.Fatalf("a lost acknowledged write went unnoticed: failed=%d err=%v", v.failed, v.firstErr)
	}
}

// TestLogSkippedSeesScannerDefect builds the log that trips the seed's
// wal.Scan (README.md, "Seed defect"): a record that starts on the last byte
// of a page, with a CRC whose low byte is zero, is taken for padding, and the
// scanner then steps over intact records until one happens to start on a page
// boundary. logSkipped must report exactly the logs wal.Scan cannot read back
// in full, so the assertion holds before and after the defect is fixed.
func TestLogSkippedSeesScannerDefect(t *testing.T) {
	sp := wireSpecs[0]
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	dev, err := device.OpenFile(filepath.Join(dir, "shard-0", "wal.img"), page.Size, walPages)
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(dev)
	header := len(wal.EncodeRecord(&wal.Record{}))
	appended := 0
	add := func(rec *wal.Record) wal.LSN { appended++; return w.Append(rec) }
	// One record that ends a byte before the page does...
	add(&wal.Record{Type: wal.RecHeapInsert, Tx: 1, Rel: 1, Data: make([]byte, page.Size-1-header)})
	// ...then a commit record whose first byte (the CRC's low byte) is zero.
	tx := txn.ID(2)
	for wal.EncodeRecord(&wal.Record{Type: wal.RecCommit, Tx: tx})[0] != 0 {
		tx++
	}
	add(&wal.Record{Type: wal.RecCommit, Tx: tx})
	var end wal.LSN
	for i := 0; i < 500; i++ {
		end = add(&wal.Record{Type: wal.RecHeapInsert, Tx: 3, Rel: 1, Data: make([]byte, 300)})
	}
	if _, err := w.Flush(0, end); err != nil {
		t.Fatal(err)
	}
	scanned := 0
	if _, err := wal.Scan(dev, func(wal.LSN, wal.Record) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	skipped, err := logSkipped(&sp, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("appended %d records, wal.Scan returned %d, logSkipped reports %d bytes", appended, scanned, skipped)
	if (scanned < appended) != (skipped > 0) {
		t.Fatalf("wal.Scan returned %d of %d records but logSkipped reports %d skipped bytes", scanned, appended, skipped)
	}
}
