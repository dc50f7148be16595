// Package exp composes the simulated devices, the storage engines and the
// TPC-C workload into the paper's experiments. Every table and figure of the
// evaluation section has a Run* function here; cmd/siasbench and the
// repository-level benchmarks are thin wrappers around them.
package exp

import (
	"fmt"

	"sias/internal/buffer"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/flash"
	"sias/internal/hdd"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tpcc"
	"sias/internal/trace"
)

// Storage selects the simulated storage configuration of the paper's
// evaluation (Section 5): a 2-SSD software RAID-0, the 6-SSD "Sylt" RAID-0,
// a single SATA HDD, or plain memory (algorithmic experiments).
type Storage int

// Storage configurations.
const (
	StorageSSDRAID2 Storage = iota
	StorageSSDRAID6
	StorageHDD
	StorageMem
)

func (s Storage) String() string {
	switch s {
	case StorageSSDRAID2:
		return "2xSSD-RAID0"
	case StorageSSDRAID6:
		return "6xSSD-RAID0"
	case StorageHDD:
		return "HDD"
	case StorageMem:
		return "RAM"
	}
	return "?"
}

// Config describes one measured run.
type Config struct {
	Engine     engine.Kind
	Policy     engine.FlushPolicy
	Storage    Storage
	Warehouses int
	Duration   simclock.Duration
	// PoolFrames sizes the buffer pool; 0 derives a default from Storage
	// (the paper's machine (i) has 4 GB RAM, Sylt has 80 GB — the derived
	// pools keep the same RAM:data proportions under our scaled rows).
	PoolFrames int
	Scale      tpcc.Scale
	Trace      bool // record a block trace of the data device
	Seed       int64
	// ThinkTime makes the run open-loop (see tpcc.DriverConfig.ThinkTime).
	ThinkTime simclock.Duration
}

// Result carries everything the experiment renderers need.
type Result struct {
	Config  Config
	Metrics tpcc.Metrics

	// Run-phase device activity (load-phase activity is excluded).
	Data device.Stats
	WAL  device.Stats
	Pool buffer.Stats

	// LiveDataPages approximates occupied space: pages granted minus pages
	// SIAS GC returned for reuse.
	LiveDataPages int64

	Tracer *trace.Recorder
	Wear   []flash.Wear // per SSD member, when Storage is flash
}

// dataPagesEstimate sizes the data device: loaded rows plus growth headroom
// proportional to the run length (TPC-C inserts orders, lines and history
// continuously). Over-sizing is cheap: the simulators only allocate backing
// memory for pages actually written.
func dataPagesEstimate(cfg Config) int64 {
	rows := int64(cfg.Warehouses) * int64(cfg.Scale.RowsPerWarehouse())
	pages := rows/40 + 4096 // ~40 avg rows/page incl. index amplification
	growth := int64(cfg.Duration.Seconds()) * 2000
	return pages*4 + growth + 16384
}

// buildDataDevice constructs the data device per the storage model.
func buildDataDevice(cfg Config, tracer *trace.Recorder) (device.BlockDevice, []*flash.SSD) {
	switch cfg.Storage {
	case StorageSSDRAID2, StorageSSDRAID6:
		n := 2
		if cfg.Storage == StorageSSDRAID6 {
			n = 6
		}
		perMember := dataPagesEstimate(cfg)/int64(n) + 8192
		fc := flash.DefaultConfig()
		fc.OverProvision = int(perMember/int64(fc.PagesPerBlock))/8 + 16
		fc.Blocks = int(perMember/int64(fc.PagesPerBlock)) + fc.OverProvision + 2
		members := make([]device.BlockDevice, n)
		ssds := make([]*flash.SSD, n)
		for i := range members {
			s := flash.New(fc, tracer)
			members[i] = s
			ssds[i] = s
		}
		return device.NewRAID0(members...), ssds
	case StorageHDD:
		hc := hdd.DefaultConfig()
		hc.NumPages = dataPagesEstimate(cfg) + 1<<16
		return hdd.New(hc, tracer), nil
	default:
		return device.NewMem(page.Size, dataPagesEstimate(cfg)+1<<16), nil
	}
}

// buildWALDevice places the log on its own device, as in the DBT-2 setups
// the paper uses (blktrace observes the data volume only). The log volume is
// a timed sink: group-commit latency and queueing are modelled, contents are
// not retained (experiments never crash-recover), and capacity is unbounded
// so multi-gigabyte virtual runs neither fill it nor hold it in host memory.
func buildWALDevice(cfg Config) device.BlockDevice {
	switch cfg.Storage {
	case StorageSSDRAID2, StorageSSDRAID6:
		fc := flash.DefaultConfig()
		return device.NewSink(page.Size, 0, fc.ReadLatency, fc.WriteLatency, 4)
	case StorageHDD:
		// Sequential log writes on a dedicated spindle: transfer-dominated.
		return device.NewSink(page.Size, 0, 200*simclock.Microsecond, 200*simclock.Microsecond, 1)
	default:
		return device.NewSink(page.Size, 0, 0, 0, 1)
	}
}

func defaultPool(cfg Config) int {
	// Keep RAM:data proportions comparable to the paper's machines.
	dataPages := int(int64(cfg.Warehouses) * int64(cfg.Scale.RowsPerWarehouse()) / 40)
	switch cfg.Storage {
	case StorageSSDRAID6:
		// Sylt: plenty of RAM; pool covers most of the working set at low
		// WH and falls behind at high WH.
		return max(4096, dataPages/2)
	case StorageHDD, StorageSSDRAID2:
		// 4 GB machine: pool is a fixed small fraction of a grown DB.
		return 6144
	default:
		return 8192
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Run executes one full experiment: build devices, open the engine, load
// TPC-C, reset counters, run the measured interval.
func Run(cfg Config) (Result, error) {
	l, err := Load(cfg)
	if err != nil {
		return Result{}, err
	}
	return l.Run()
}

// Loaded is an experiment whose engine is open and whose TPC-C tables are
// loaded, ready for its measured interval. Load builds one, Run measures it
// once.
type Loaded struct {
	cfg    Config
	db     *engine.DB
	bench  *tpcc.Bench
	at     simclock.Time
	data   device.BlockDevice
	walDev device.BlockDevice
	ssds   []*flash.SSD
	tracer *trace.Recorder
}

// Load builds the devices of cfg, opens the engine and loads TPC-C: every
// step of Run before the measured interval.
func Load(cfg Config) (*Loaded, error) {
	if cfg.Scale == (tpcc.Scale{}) {
		cfg.Scale = tpcc.SmallScale()
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60 * simclock.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	var tracer *trace.Recorder
	if cfg.Trace {
		tracer = trace.New()
	}
	data, ssds := buildDataDevice(cfg, tracer)
	walDev := buildWALDevice(cfg)

	opts := engine.DefaultOptions(data, walDev)
	opts.Kind = cfg.Engine
	opts.Policy = cfg.Policy
	opts.PoolFrames = cfg.PoolFrames
	if opts.PoolFrames == 0 {
		opts.PoolFrames = defaultPool(cfg)
	}
	db, err := engine.Open(opts)
	if err != nil {
		return nil, err
	}
	b, at, err := tpcc.CreateTables(db, 0)
	if err != nil {
		return nil, err
	}
	b.Scale = cfg.Scale
	at, err = b.Load(at, cfg.Warehouses)
	if err != nil {
		return nil, fmt.Errorf("exp: load %d WH: %w", cfg.Warehouses, err)
	}
	return &Loaded{cfg: cfg, db: db, bench: b, at: at, data: data, walDev: walDev, ssds: ssds, tracer: tracer}, nil
}

// Run resets the load-phase counters and runs the measured interval.
func (l *Loaded) Run() (Result, error) {
	cfg := l.cfg
	// Steady-state measurement starts here: drop load-phase accounting.
	l.data.ResetStats()
	l.walDev.ResetStats()
	if l.tracer != nil {
		l.tracer.Reset()
	}

	dcfg := tpcc.DefaultDriverConfig(cfg.Warehouses)
	dcfg.Duration = cfg.Duration
	dcfg.Seed = cfg.Seed
	dcfg.ThinkTime = cfg.ThinkTime
	metrics, _, err := l.bench.Run(l.at, dcfg)
	if err != nil {
		return Result{}, fmt.Errorf("exp: run: %w", err)
	}

	res := Result{
		Config:        cfg,
		Metrics:       metrics,
		Data:          l.data.Stats(),
		WAL:           l.walDev.Stats(),
		Pool:          l.db.Pool().Stats(),
		LiveDataPages: liveDataPages(l.db),
		Tracer:        l.tracer,
	}
	for _, s := range l.ssds {
		res.Wear = append(res.Wear, s.Wear())
	}
	return res, nil
}

// liveDataPages sums per-table occupied pages (SIAS subtracts GC-freed
// blocks; SI counts its heap high-water mark).
func liveDataPages(db *engine.DB) int64 {
	var total int64
	for _, tab := range db.Tables() {
		if r := tab.SIAS(); r != nil {
			total += int64(r.LiveBlocks())
		} else if r := tab.SI(); r != nil {
			total += int64(r.Blocks())
		}
	}
	return total
}
