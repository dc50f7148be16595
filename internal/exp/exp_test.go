package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sias/internal/engine"
	"sias/internal/simclock"
	"sias/internal/tpcc"
)

// fastCfg is a minimal configuration exercising the full pipeline quickly.
func fastCfg(kind engine.Kind, st Storage) Config {
	return Config{
		Engine:     kind,
		Policy:     engine.PolicyT2,
		Storage:    st,
		Warehouses: 2,
		Duration:   2 * simclock.Second,
		Scale:      tpcc.Scale{Items: 50, CustomersPerDistrict: 20, InitialOrders: 20},
		Seed:       3,
	}
}

func TestRunSmokeAllStorages(t *testing.T) {
	for _, st := range []Storage{StorageMem, StorageSSDRAID2, StorageSSDRAID6, StorageHDD} {
		t.Run(st.String(), func(t *testing.T) {
			res, err := Run(fastCfg(engine.KindSIAS, st))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Committed == 0 {
				t.Error("no committed transactions")
			}
			if st != StorageMem && res.Data.Writes == 0 && res.WAL.Writes == 0 {
				t.Error("no device activity recorded")
			}
		})
	}
}

func TestRunWithTraceProducesEvents(t *testing.T) {
	cfg := fastCfg(engine.KindSI, StorageSSDRAID2)
	cfg.Trace = true
	cfg.Policy = engine.PolicyT1 // background writer produces trace events
	cfg.Duration = 5 * simclock.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracer == nil || res.Tracer.Len() == 0 {
		t.Fatal("trace missing")
	}
	if len(res.Wear) != 2 {
		t.Errorf("expected wear stats for 2 SSDs, got %d", len(res.Wear))
	}
}

func TestWriteReductionShapeHolds(t *testing.T) {
	// The core claim at miniature scale: SIAS-t2 writes far less than SI
	// for the same open-loop work.
	base := fastCfg(engine.KindSI, StorageSSDRAID2)
	base.Duration = 10 * simclock.Second
	base.ThinkTime = 20 * simclock.Millisecond
	base.Policy = engine.PolicyT1
	si, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Engine = engine.KindSIAS
	base.Policy = engine.PolicyT2
	sias, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if sias.Data.WrittenMB() >= si.Data.WrittenMB() {
		t.Errorf("SIAS wrote %.1f MB >= SI %.1f MB: write reduction lost",
			sias.Data.WrittenMB(), si.Data.WrittenMB())
	}
	red := 1 - sias.Data.WrittenMB()/si.Data.WrittenMB()
	t.Logf("write reduction at miniature scale: %.0f%%", red*100)
	if red < 0.5 {
		t.Errorf("write reduction %.0f%% below 50%%: shape degraded", red*100)
	}
}

func TestThroughputShapeHolds(t *testing.T) {
	// SIAS must beat SI on flash under the closed-loop workload.
	base := fastCfg(engine.KindSI, StorageSSDRAID2)
	base.Duration = 10 * simclock.Second
	base.Policy = engine.PolicyT1
	si, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Engine = engine.KindSIAS
	base.Policy = engine.PolicyT2
	sias, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if sias.Metrics.NOTPM <= si.Metrics.NOTPM {
		t.Errorf("SIAS NOTPM %.0f <= SI %.0f: throughput advantage lost",
			sias.Metrics.NOTPM, si.Metrics.NOTPM)
	}
	if sias.Metrics.AvgResponse >= si.Metrics.AvgResponse {
		t.Errorf("SIAS response %s >= SI %s: latency advantage lost",
			sias.Metrics.AvgResponse, si.Metrics.AvgResponse)
	}
}

func TestFormatters(t *testing.T) {
	rows := []Table1Row{{
		Duration: 600 * simclock.Second,
		SIMB:     1000, SIASt1MB: 350, SIASt2MB: 30, RedT1: 65, RedT2: 97,
		SISpace: 1000, SIASt2Space: 880,
	}}
	out := FormatTable1(rows)
	for _, want := range []string{"600", "1000.0", "65%", "97%", "12%"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q in:\n%s", want, out)
		}
	}
	pts := []SweepPoint{{Warehouses: 30, SIASNOTPM: 386, SINOTPM: 325,
		SIASResp: 31 * simclock.Millisecond, SIResp: 11700 * simclock.Millisecond}}
	sw := FormatSweep("Table 2", pts)
	for _, want := range []string{"Table 2", "386", "325", "0.031", "11.700"} {
		if !strings.Contains(sw, want) {
			t.Errorf("FormatSweep missing %q in:\n%s", want, sw)
		}
	}
}

func TestBlocktraceSmoke(t *testing.T) {
	cfg := BlocktraceConfig{Warehouses: 2, Duration: 2 * simclock.Second}
	_, rendered, err := RunBlocktrace(engine.KindSIAS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "Figure 3") {
		t.Errorf("render missing title:\n%s", rendered)
	}
}

// TestRunsRepeat is the simulator's determinism check: one configuration run
// twice gives the same TPC-C metrics, the same data and WAL device counters to
// the last unit and the same data-device block trace, on every storage, for
// the SI baseline (t1) and for SIAS (t2). The paper's tables are
// deterministic only if this holds. The run is open-loop and 31 virtual
// seconds long, so SIAS GC fires six times and each engine checkpoints once.
func TestRunsRepeat(t *testing.T) {
	for _, st := range []Storage{StorageMem, StorageSSDRAID2, StorageSSDRAID6, StorageHDD} {
		for _, e := range []struct {
			kind   engine.Kind
			policy engine.FlushPolicy
		}{{engine.KindSI, engine.PolicyT1}, {engine.KindSIAS, engine.PolicyT2}} {
			cfg := fastCfg(e.kind, st)
			cfg.Policy = e.policy
			cfg.Duration = 31 * simclock.Second
			cfg.ThinkTime = 100 * simclock.Millisecond
			cfg.Trace = true
			t.Run(fmt.Sprintf("%s/%s-%s", st, e.kind, e.policy), func(t *testing.T) {
				a, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Metrics, b.Metrics) {
					t.Errorf("metrics differ between two runs:\n%+v\n%+v", a.Metrics, b.Metrics)
				}
				if a.Data != b.Data {
					t.Errorf("data device counters differ between two runs:\n%+v\n%+v", a.Data, b.Data)
				}
				if a.WAL != b.WAL {
					t.Errorf("WAL device counters differ between two runs:\n%+v\n%+v", a.WAL, b.WAL)
				}
				if st != StorageMem && a.Tracer.Len() == 0 {
					t.Error("no data-device trace recorded")
				}
				if !reflect.DeepEqual(a.Tracer.Events(), b.Tracer.Events()) {
					t.Errorf("the data-device traces differ between two runs: %d and %d events", a.Tracer.Len(), b.Tracer.Len())
				}
			})
		}
	}
}
