package tpcc

import (
	"fmt"
	"math/rand"
	"sort"

	"sias/internal/simclock"
)

// DriverConfig parameterizes a measured run.
type DriverConfig struct {
	// Duration is the measured virtual run time (the paper uses 300-1800 s).
	Duration simclock.Duration
	// Terminals is the number of concurrent virtual terminals; DBT-2 style
	// (a connection pool rather than 10 per warehouse). Default: one per
	// warehouse, capped at 64.
	Terminals int
	// ThinkTime, when non-zero, makes the workload open-loop: each terminal
	// pauses this long between transactions, so both engines process the
	// same arrival stream (used by the write-volume experiment to compare
	// equal work instead of equal wall-clock at different throughputs).
	ThinkTime simclock.Duration
	// Seed makes runs reproducible.
	Seed int64
}

// txnCPU is a fixed virtual CPU cost charged per transaction for
// parse/plan/executor overhead outside the storage manager.
const txnCPU = 100 * simclock.Microsecond

// DefaultDriverConfig returns a 60-virtual-second run configuration.
func DefaultDriverConfig(warehouses int) DriverConfig {
	term := warehouses
	if term > 64 {
		term = 64
	}
	if term < 1 {
		term = 1
	}
	return DriverConfig{
		Duration:  60 * simclock.Second,
		Terminals: term,
		Seed:      7,
	}
}

// Metrics aggregates a run's outcome.
type Metrics struct {
	Duration       simclock.Duration
	Total          int
	Committed      int
	Aborted        int
	Conflicts      int
	NewOrders      int // committed New-Order transactions
	NOTPM          float64
	AvgResponse    simclock.Duration // New-Order transactions
	P90Response    simclock.Duration
	PerType        map[TxnType]int
	AvgRespPerType map[TxnType]simclock.Duration
}

func (m Metrics) String() string {
	return fmt.Sprintf("NOTPM=%.0f committed=%d aborted=%d conflicts=%d avgResp=%s p90Resp=%s",
		m.NOTPM, m.Committed, m.Aborted, m.Conflicts, m.AvgResponse, m.P90Response)
}

// Run executes the workload as a discrete-event simulation: each terminal
// owns a virtual clock; the scheduler always advances the terminal with the
// smallest clock, so transactions from different terminals overlap in
// virtual time and contend for device resources exactly as concurrent
// clients would. Engine maintenance (background writer, checkpoints, GC) is
// driven from the same clock via DB.Tick.
func (b *Bench) Run(start simclock.Time, cfg DriverConfig) (Metrics, simclock.Time, error) {
	if cfg.Terminals <= 0 {
		cfg.Terminals = 1
	}
	type terminal struct {
		clock simclock.Time
		rng   *rand.Rand
		w     int64
	}
	terms := make([]*terminal, cfg.Terminals)
	for i := range terms {
		terms[i] = &terminal{
			clock: start,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i))),
			w:     1 + int64(i%b.Warehouses),
		}
	}
	deadline := start.Add(cfg.Duration)
	var m Metrics
	m.PerType = map[TxnType]int{}
	m.AvgRespPerType = map[TxnType]simclock.Duration{}
	respSum := map[TxnType]simclock.Duration{}
	var noResponses []simclock.Duration

	for {
		// Pick the terminal with the smallest virtual clock.
		var t *terminal
		for _, cand := range terms {
			if cand.clock >= deadline {
				continue
			}
			if t == nil || cand.clock < t.clock {
				t = cand
			}
		}
		if t == nil {
			break
		}
		// Drive engine maintenance up to this point in virtual time.
		tick, err := b.DB.Tick(t.clock)
		if err != nil {
			return m, t.clock, err
		}
		if tick > t.clock {
			t.clock = tick
		}
		typ := pickTxn(t.rng)
		// Home warehouse: terminals cycle over warehouses; occasionally a
		// terminal acts on another warehouse to spread load.
		w := t.w
		if b.Warehouses > 1 && t.rng.Intn(10) == 0 {
			w = 1 + t.rng.Int63n(int64(b.Warehouses))
		}
		after, res, err := b.Execute(t.clock.Add(txnCPU), t.rng, typ, w)
		if err != nil {
			return m, t.clock, fmt.Errorf("tpcc: %s on warehouse %d: %w", typ, w, err)
		}
		t.clock = after.Add(cfg.ThinkTime)
		m.Total++
		m.PerType[typ]++
		respSum[typ] += res.Response
		if res.Committed {
			m.Committed++
			if typ == TxnNewOrder {
				m.NewOrders++
				noResponses = append(noResponses, res.Response)
			}
		} else {
			m.Aborted++
			if res.Conflict {
				m.Conflicts++
			}
		}
	}

	m.Duration = cfg.Duration
	minutes := cfg.Duration.Seconds() / 60
	if minutes > 0 {
		m.NOTPM = float64(m.NewOrders) / minutes
	}
	if len(noResponses) > 0 {
		var sum simclock.Duration
		for _, r := range noResponses {
			sum += r
		}
		m.AvgResponse = sum / simclock.Duration(len(noResponses))
		sort.Slice(noResponses, func(i, j int) bool { return noResponses[i] < noResponses[j] })
		m.P90Response = noResponses[len(noResponses)*9/10]
	}
	for typ, n := range m.PerType {
		if n > 0 {
			m.AvgRespPerType[typ] = respSum[typ] / simclock.Duration(n)
		}
	}
	return m, deadline, nil
}
