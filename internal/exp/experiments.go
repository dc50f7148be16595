package exp

import (
	"fmt"
	"strings"

	"sias/internal/engine"
	"sias/internal/simclock"
)

// Table1Row is one line of the paper's Table 1 ("Write Amount (MB) and
// Reduction (%)"): total data-volume writes over a run of the given length
// for SI, SIAS with threshold t1 and SIAS with threshold t2.
type Table1Row struct {
	Duration    simclock.Duration
	SIMB        float64
	SIASt1MB    float64
	SIASt2MB    float64
	RedT1       float64 // percent
	RedT2       float64 // percent
	SISpace     int64   // occupied data pages, for the §5.2 space claim
	SIASt2Space int64
}

// Table1Config parameterizes the write-reduction experiment. The paper runs
// 100 warehouses for 600/900/1800 s; the defaults reproduce those durations
// at the reduced row scale.
type Table1Config struct {
	Warehouses int
	Durations  []simclock.Duration
	Storage    Storage
}

// DefaultTable1Config returns the paper's durations on the 2-SSD RAID.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Warehouses: 20,
		Durations: []simclock.Duration{
			600 * simclock.Second, 900 * simclock.Second, 1800 * simclock.Second,
		},
		Storage: StorageSSDRAID2,
	}
}

// RunTable1 regenerates Table 1.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, d := range cfg.Durations {
		// Open-loop at a fixed arrival rate so all three configurations
		// process the same transaction stream: Table 1 compares the write
		// volume of equal work, not of different achieved throughputs.
		run := func(kind engine.Kind, pol engine.FlushPolicy) (Result, error) {
			return Run(Config{
				Engine: kind, Policy: pol, Storage: cfg.Storage,
				Warehouses: cfg.Warehouses, Duration: d,
				ThinkTime: 50 * simclock.Millisecond,
			})
		}
		si, err := run(engine.KindSI, engine.PolicyT1)
		if err != nil {
			return nil, err
		}
		t1, err := run(engine.KindSIAS, engine.PolicyT1)
		if err != nil {
			return nil, err
		}
		t2, err := run(engine.KindSIAS, engine.PolicyT2)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Duration:    d,
			SIMB:        si.Data.WrittenMB(),
			SIASt1MB:    t1.Data.WrittenMB(),
			SIASt2MB:    t2.Data.WrittenMB(),
			SISpace:     si.LiveDataPages,
			SIASt2Space: t2.LiveDataPages,
		}
		if row.SIMB > 0 {
			row.RedT1 = 100 * (1 - row.SIASt1MB/row.SIMB)
			row.RedT2 = 100 * (1 - row.SIASt2MB/row.SIMB)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Write Amount (MB) and Reduction (%%)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %8s %8s\n", "Time(sec.)", "SI", "SIAS-t1", "SIAS-t2", "Red t1", "Red t2")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.0f %10.1f %10.1f %10.1f %7.0f%% %7.0f%%\n",
			r.Duration.Seconds(), r.SIMB, r.SIASt1MB, r.SIASt2MB, r.RedT1, r.RedT2)
	}
	if n := len(rows); n > 0 {
		last := rows[n-1]
		if last.SISpace > 0 {
			fmt.Fprintf(&b, "Space (pages): SI=%d SIAS-t2=%d (reduction %.0f%%)\n",
				last.SISpace, last.SIASt2Space, 100*(1-float64(last.SIASt2Space)/float64(last.SISpace)))
		}
	}
	return b.String()
}

// SweepPoint is one (warehouses → throughput, response time) sample of a
// TPC-C sweep, for Table 2 and Figures 5 and 6.
type SweepPoint struct {
	Warehouses int
	SIASNOTPM  float64
	SINOTPM    float64
	SIASResp   simclock.Duration
	SIResp     simclock.Duration
}

// SweepConfig parameterizes a warehouse sweep.
type SweepConfig struct {
	Storage    Storage
	Warehouses []int
	Duration   simclock.Duration
	PoolFrames int
}

// DefaultTable2Config reproduces the paper's HDD sweep (Table 2:
// 30/40/50/60/75/100 warehouses).
func DefaultTable2Config() SweepConfig {
	return SweepConfig{
		Storage:    StorageHDD,
		Warehouses: []int{30, 40, 50, 60, 75, 100},
		Duration:   60 * simclock.Second,
		PoolFrames: 6144,
	}
}

// DefaultFigure5Config reproduces the 2-SSD RAID sweep of Figure 5 (the
// paper sweeps to 530 warehouses of full-size TPC-C on a 4 GB machine; the
// scaled population shifts the same cache-pressure knee into this range).
func DefaultFigure5Config() SweepConfig {
	return SweepConfig{
		Storage:    StorageSSDRAID2,
		Warehouses: []int{10, 20, 40, 80, 120, 160},
		Duration:   20 * simclock.Second,
		PoolFrames: 4096,
	}
}

// DefaultFigure6Config reproduces the 6-SSD RAID sweep of Figure 6 (the
// "Sylt" server: more channels and a larger pool push the peak right and up).
func DefaultFigure6Config() SweepConfig {
	return SweepConfig{
		Storage:    StorageSSDRAID6,
		Warehouses: []int{10, 20, 40, 80, 120, 160, 200},
		Duration:   20 * simclock.Second,
		PoolFrames: 12288,
	}
}

// RunSweep executes both engines at every warehouse count.
func RunSweep(cfg SweepConfig) ([]SweepPoint, error) {
	var pts []SweepPoint
	for _, w := range cfg.Warehouses {
		sias, err := Run(Config{
			Engine: engine.KindSIAS, Policy: engine.PolicyT2, Storage: cfg.Storage,
			Warehouses: w, Duration: cfg.Duration, PoolFrames: cfg.PoolFrames,
		})
		if err != nil {
			return nil, err
		}
		si, err := Run(Config{
			Engine: engine.KindSI, Policy: engine.PolicyT1, Storage: cfg.Storage,
			Warehouses: w, Duration: cfg.Duration, PoolFrames: cfg.PoolFrames,
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{
			Warehouses: w,
			SIASNOTPM:  sias.Metrics.NOTPM,
			SINOTPM:    si.Metrics.NOTPM,
			SIASResp:   sias.Metrics.AvgResponse,
			SIResp:     si.Metrics.AvgResponse,
		})
	}
	return pts, nil
}

// FormatSweep renders a sweep in the layout of Table 2 / Figures 5-6.
func FormatSweep(title string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s", "Warehouses")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d", p.Warehouses)
	}
	fmt.Fprintf(&b, "\n%-12s", "SIAS(NOTPM)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10.0f", p.SIASNOTPM)
	}
	fmt.Fprintf(&b, "\n%-12s", "SI  (NOTPM)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10.0f", p.SINOTPM)
	}
	fmt.Fprintf(&b, "\n%-12s", "SIAS(sec.)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10.3f", p.SIASResp.Seconds())
	}
	fmt.Fprintf(&b, "\n%-12s", "SI  (sec.)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10.3f", p.SIResp.Seconds())
	}
	b.WriteString("\n")
	return b.String()
}

// BlocktraceConfig parameterizes the Figure 3/4 trace runs (paper: SSD,
// 100 warehouses, 300 s).
type BlocktraceConfig struct {
	Warehouses int
	Duration   simclock.Duration
}

// The Figure 3/4 scatter is scatterWidth characters by scatterHeight lines.
const (
	scatterWidth  = 100
	scatterHeight = 24
)

// DefaultBlocktraceConfig returns the scaled Figure 3/4 setup.
func DefaultBlocktraceConfig() BlocktraceConfig {
	return BlocktraceConfig{Warehouses: 20, Duration: 300 * simclock.Second}
}

// RunBlocktrace records the data-volume trace of one engine (Figure 3 for
// SIAS, Figure 4 for SI).
func RunBlocktrace(kind engine.Kind, cfg BlocktraceConfig) (Result, string, error) {
	pol := engine.PolicyT2
	if kind == engine.KindSI {
		pol = engine.PolicyT1
	}
	// Open-loop at a moderate arrival rate: the paper's traces come from a
	// steady 100-WH run, and equal work makes the two figures' write-volume
	// contrast directly comparable.
	res, err := Run(Config{
		Engine: kind, Policy: pol, Storage: StorageSSDRAID2,
		Warehouses: cfg.Warehouses, Duration: cfg.Duration, Trace: true,
		ThinkTime: 25 * simclock.Millisecond,
		// A pool well below the data size, as on the paper's 4 GB machine
		// against a 100-WH database: reads miss and scatter across the
		// relations, which is the selective-read pattern of Figure 3.
		PoolFrames: 2048,
	})
	if err != nil {
		return Result{}, "", err
	}
	sum := res.Tracer.Summarize()
	var b strings.Builder
	name := "Figure 3: Blocktrace SIAS"
	if kind == engine.KindSI {
		name = "Figure 4: Blocktrace SI"
	}
	fmt.Fprintf(&b, "%s — SSD, %d WH (scaled), %.0f s\n", name, cfg.Warehouses, cfg.Duration.Seconds())
	b.WriteString(res.Tracer.Scatter(scatterWidth, scatterHeight))
	fmt.Fprintf(&b, "reads=%d (%.1f MB)  writes=%d (%.1f MB)  read:write=%.1f:1\n",
		sum.Reads, sum.ReadMB(), sum.Writes, sum.WriteMB(),
		float64(sum.Reads)/float64(maxi(sum.Writes, 1)))
	return res, b.String(), nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
