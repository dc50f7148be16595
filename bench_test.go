// Repository-level benchmarks: one per table and figure of the paper's
// evaluation section, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark executes the corresponding experiment from
// internal/exp once per iteration (they are full simulated runs, so a single
// iteration is the norm; use -benchtime=1x for the canonical output) and
// reports the headline numbers as custom metrics. The rendered paper-style
// tables appear with -v via b.Log.
package sias

import (
	"runtime"
	"testing"

	"sias/internal/engine"
	"sias/internal/exp"
	"sias/internal/simclock"
	"sias/internal/tpcc"
)

// BenchmarkTable1WriteReduction regenerates Table 1 (write amount in MB and
// reduction %, SI vs SIAS-t1 vs SIAS-t2) at the paper's run lengths.
func BenchmarkTable1WriteReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultTable1Config()
		// Two of the paper's three run lengths keep the bench suite
		// tractable on one core; cmd/siasbench runs all three.
		cfg.Durations = cfg.Durations[:2]
		if testing.Short() {
			cfg.Durations = cfg.Durations[:1]
		}
		rows, err := exp.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + exp.FormatTable1(rows))
		last := rows[len(rows)-1]
		b.ReportMetric(last.RedT1, "red-t1-%")
		b.ReportMetric(last.RedT2, "red-t2-%")
		b.ReportMetric(last.SIMB, "SI-MB")
		b.ReportMetric(last.SIASt2MB, "SIAS-t2-MB")
	}
}

// BenchmarkTable2TPCCOnHDD regenerates Table 2 (NOTPM and response time on
// the simulated 7200 rpm disk across the warehouse sweep).
func BenchmarkTable2TPCCOnHDD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultTable2Config()
		cfg.Duration = 30 * simclock.Second
		if testing.Short() {
			cfg.Warehouses = cfg.Warehouses[:2]
		}
		pts, err := exp.RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + exp.FormatSweep("Table 2: TPC-C on HDD", pts))
		last := pts[len(pts)-1]
		b.ReportMetric(last.SIASNOTPM, "SIAS-NOTPM@max")
		b.ReportMetric(last.SINOTPM, "SI-NOTPM@max")
		b.ReportMetric(last.SIASResp.Seconds(), "SIAS-resp-s@max")
		b.ReportMetric(last.SIResp.Seconds(), "SI-resp-s@max")
	}
}

// BenchmarkFigure3BlocktraceSIAS regenerates Figure 3: the SIAS block trace
// on SSD (appends form swimlanes; reads scatter).
func BenchmarkFigure3BlocktraceSIAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, rendered, err := exp.RunBlocktrace(engine.KindSIAS, exp.DefaultBlocktraceConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + rendered)
		sum := res.Tracer.Summarize()
		b.ReportMetric(float64(sum.Reads), "reads")
		b.ReportMetric(float64(sum.Writes), "writes")
		b.ReportMetric(sum.WriteMB(), "write-MB")
	}
}

// BenchmarkFigure4BlocktraceSI regenerates Figure 4: the SI block trace on
// SSD (mixed random reads and writes across the whole relation).
func BenchmarkFigure4BlocktraceSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, rendered, err := exp.RunBlocktrace(engine.KindSI, exp.DefaultBlocktraceConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + rendered)
		sum := res.Tracer.Summarize()
		b.ReportMetric(float64(sum.Reads), "reads")
		b.ReportMetric(float64(sum.Writes), "writes")
		b.ReportMetric(sum.WriteMB(), "write-MB")
	}
}

// BenchmarkFigure5TPCCOn2SSDRAID regenerates Figure 5: the warehouse sweep
// on the two-SSD RAID-0.
func BenchmarkFigure5TPCCOn2SSDRAID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultFigure5Config()
		cfg.Duration = 10 * simclock.Second
		if testing.Short() {
			cfg.Warehouses = cfg.Warehouses[:3]
		}
		pts, err := exp.RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + exp.FormatSweep("Figure 5: TPC-C on 2-SSD RAID-0", pts))
		peakSIAS, peakSI := 0.0, 0.0
		for _, p := range pts {
			if p.SIASNOTPM > peakSIAS {
				peakSIAS = p.SIASNOTPM
			}
			if p.SINOTPM > peakSI {
				peakSI = p.SINOTPM
			}
		}
		b.ReportMetric(peakSIAS, "SIAS-peak-NOTPM")
		b.ReportMetric(peakSI, "SI-peak-NOTPM")
	}
}

// BenchmarkFigure6TPCCOn6SSDRAID regenerates Figure 6: the warehouse sweep
// on the six-SSD RAID-0.
func BenchmarkFigure6TPCCOn6SSDRAID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultFigure6Config()
		cfg.Duration = 10 * simclock.Second
		if testing.Short() {
			cfg.Warehouses = cfg.Warehouses[:3]
		}
		pts, err := exp.RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + exp.FormatSweep("Figure 6: TPC-C on 6-SSD RAID-0", pts))
		peakSIAS, peakSI := 0.0, 0.0
		for _, p := range pts {
			if p.SIASNOTPM > peakSIAS {
				peakSIAS = p.SIASNOTPM
			}
			if p.SINOTPM > peakSI {
				peakSI = p.SINOTPM
			}
		}
		b.ReportMetric(peakSIAS, "SIAS-peak-NOTPM")
		b.ReportMetric(peakSI, "SI-peak-NOTPM")
	}
}

// BenchmarkAblationFlushThreshold compares SIAS under t1 vs t2 directly —
// the design choice Section 5.2 quantifies.
func BenchmarkAblationFlushThreshold(b *testing.B) {
	for _, pol := range []engine.FlushPolicy{engine.PolicyT1, engine.PolicyT2} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(exp.Config{
					Engine: engine.KindSIAS, Policy: pol, Storage: exp.StorageSSDRAID2,
					Warehouses: 10, Duration: 60 * simclock.Second,
					ThinkTime: 50 * simclock.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Data.WrittenMB(), "write-MB")
				b.ReportMetric(float64(res.LiveDataPages), "live-pages")
				b.ReportMetric(res.Metrics.NOTPM, "NOTPM")
			}
		})
	}
}

// BenchmarkAblationRAIDWidth isolates the channel-parallelism effect
// (Figure 5 vs Figure 6 hardware) at a fixed warehouse count.
func BenchmarkAblationRAIDWidth(b *testing.B) {
	for _, st := range []exp.Storage{exp.StorageSSDRAID2, exp.StorageSSDRAID6} {
		b.Run(st.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(exp.Config{
					Engine: engine.KindSIAS, Policy: engine.PolicyT2, Storage: st,
					Warehouses: 40, Duration: 30 * simclock.Second, PoolFrames: 4096,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Metrics.NOTPM, "NOTPM")
				b.ReportMetric(res.Metrics.AvgResponse.Milliseconds(), "resp-ms")
			}
		})
	}
}

// BenchmarkAblationEngineOnHDDvsSSD runs both engines on both media at one
// configuration — the cross-media comparison behind Tables 1-2.
func BenchmarkAblationEngineOnHDDvsSSD(b *testing.B) {
	for _, st := range []exp.Storage{exp.StorageSSDRAID2, exp.StorageHDD} {
		for _, kind := range []engine.Kind{engine.KindSIAS, engine.KindSI} {
			b.Run(st.String()+"/"+kind.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pol := engine.PolicyT2
					if kind == engine.KindSI {
						pol = engine.PolicyT1
					}
					res, err := exp.Run(exp.Config{
						Engine: kind, Policy: pol, Storage: st,
						Warehouses: 10, Duration: 30 * simclock.Second,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Metrics.NOTPM, "NOTPM")
					b.ReportMetric(res.Metrics.AvgResponse.Milliseconds(), "resp-ms")
				}
			})
		}
	}
}

// loadOLTPMix loads the TPC-C mix on memory-backed storage for a run of
// virtual length d: the floor of both engines, no device latency.
func loadOLTPMix(tb testing.TB, kind engine.Kind, d simclock.Duration) *exp.Loaded {
	loaded, err := exp.Load(exp.Config{
		Engine: kind, Policy: engine.PolicyT2, Storage: exp.StorageMem,
		Warehouses: 2, Duration: d, Scale: tpcc.SmallScale(), Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return loaded
}

// runOLTPMix runs a loaded mix and returns its result and the heap
// allocations (count and bytes) the run made.
func runOLTPMix(tb testing.TB, loaded *exp.Loaded) (exp.Result, uint64, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := loaded.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Metrics.Committed == 0 {
		tb.Fatal("no transaction committed")
	}
	return res, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkMicroOLTPMix measures the engine's own CPU cost per transaction:
// the TPC-C mix on memory-backed storage (no device latency), the floor of
// both engines. The load runs outside the timer and one op is 10 ms of
// virtual time; ns/txn, allocs/txn and B/txn are per committed transaction
// (the allocs/op and B/op of -benchmem are per op).
func BenchmarkMicroOLTPMix(b *testing.B) {
	for _, kind := range []engine.Kind{engine.KindSIAS, engine.KindSI} {
		b.Run(kind.String(), func(b *testing.B) {
			loaded := loadOLTPMix(b, kind, simclock.Duration(b.N)*10*simclock.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			res, mallocs, bytes := runOLTPMix(b, loaded)
			b.StopTimer()
			m := res.Metrics
			n := float64(m.Committed)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/txn")
			b.ReportMetric(float64(mallocs)/n, "allocs/txn")
			b.ReportMetric(float64(bytes)/n, "B/txn")
			b.ReportMetric(float64(m.Total)/float64(b.N), "txns/op")
		})
	}
}

// TestOLTPAllocBudget pins the heap allocations of a committed TPC-C
// transaction on memory-backed storage at 110 for both engines, and its
// bytes at 8 KB under the SI baseline. The simulator reads rows as views of
// each version's one private copy and edits only the columns it sets, so
// what is left is that copy per version read, the inserted rows, and the
// locks, hooks and commit of each transaction. The SI baseline's bytes are
// pinned too because it prunes on almost every update: it encodes a version
// into its page slot, compacts a pruned page in place and copies only the
// version a read hands out.
func TestOLTPAllocBudget(t *testing.T) {
	for _, c := range []struct {
		kind     engine.Kind
		maxBytes float64 // 0: not pinned
	}{
		{engine.KindSIAS, 0},
		{engine.KindSI, 8 << 10},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			loaded := loadOLTPMix(t, c.kind, 500*simclock.Millisecond)
			res, mallocs, bytes := runOLTPMix(t, loaded)
			n := float64(res.Metrics.Committed)
			perTxn, bytesPerTxn := float64(mallocs)/n, float64(bytes)/n
			t.Logf("%d committed transactions, %.1f allocations and %.0f bytes each", res.Metrics.Committed, perTxn, bytesPerTxn)
			if perTxn > 110 {
				t.Errorf("a committed TPC-C transaction costs %.1f allocations, want at most 110", perTxn)
			}
			if c.maxBytes > 0 && bytesPerTxn > c.maxBytes {
				t.Errorf("a committed TPC-C transaction allocates %.0f bytes, want at most %.0f", bytesPerTxn, c.maxBytes)
			}
		})
	}
}
