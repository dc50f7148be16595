package main

import (
	"fmt"
	"math"
	"sort"
)

// decl declares one metric. BENCHMARK.json at the repository root lists the
// same names, units and directions; bench_test.go keeps the two from
// drifting.
type decl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric; README.md has the table of what each reads on each workload, and
// the A/A runs the bounds come from: a bound is at least 3x the widest
// inter-quartile spread any workload showed over 10 seeds on a quiet host,
// and the contract caps it at 0.25.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"wtxn_avg_ms", "ms", "lower", 0.25},
	{"rtxn_avg_ms", "ms", "lower", 0.25},
	{"commit_avg_ms", "ms", "lower", 0.25},
	{"write_amp", "B/B", "lower", 0.10},
	{"space_amp", "B/B", "lower", 0.12},
	{"recover_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is one layer's work, read from outside the program: counts are
// deltas of public Stats() snapshots over the measured phase, timings come
// from the traced ladder. A layer a workload does not exercise reads 0.
var perLayer = []decl{
	{"failed_frac", "ratio", "lower", 0},

	{"client.wtxn_p50_ms", "ms", "lower", 0},
	{"client.wtxn_p95_ms", "ms", "lower", 0},
	{"client.rtxn_p50_ms", "ms", "lower", 0},
	{"client.rtxn_p95_ms", "ms", "lower", 0},
	{"client.scan_avg_ms", "ms", "lower", 0},
	{"client.scan_p50_ms", "ms", "lower", 0},
	{"client.commit_p50_ms", "ms", "lower", 0},
	{"client.begin_p50_us", "us", "lower", 0},
	{"client.get_p50_us", "us", "lower", 0},
	{"client.update_p50_us", "us", "lower", 0},
	{"client.scan_p50_us", "us", "lower", 0},
	{"client.commit_p50_us", "us", "lower", 0},
	{"client.trace_overhead_pct", "%", "lower", 0},

	{"wire.codec_ns_per_frame", "ns", "lower", 0},
	{"wire.loopback_rtt_us", "us", "lower", 0},

	{"server.self_get_us", "us", "lower", 0},
	{"server.self_update_us", "us", "lower", 0},
	{"server.self_commit_us", "us", "lower", 0},
	{"server.self_scan_us", "us", "lower", 0},
	{"server.requests_per_txn", "count", "lower", 0},
	{"server.overloaded", "count", "lower", 0},

	{"shard.commit_p50_us", "us", "lower", 0},
	{"shard.self_commit_us", "us", "lower", 0},
	{"shard.cross_commits_per_txn", "count", "lower", 0},
	{"shard.wal_writes_per_xcommit", "count", "lower", 0},
	{"shard.prepares_per_xcommit", "count", "lower", 0},
	{"shard.twopc_aborts", "count", "lower", 0},
	{"shard.indoubt", "count", "lower", 0},
	{"shard.torn_reads", "count", "lower", 0},

	{"engine.begin_p50_us", "us", "lower", 0},
	{"engine.get_p50_us", "us", "lower", 0},
	{"engine.update_p50_us", "us", "lower", 0},
	{"engine.range_p50_us", "us", "lower", 0},
	{"engine.commit_p50_us", "us", "lower", 0},
	{"engine.flushes_per_txn", "ratio", "lower", 0},
	{"engine.commits_per_flush", "ratio", "higher", 0},
	{"engine.max_batch", "count", "higher", 0},
	{"engine.checkpoint_ms", "ms", "lower", 0},
	{"engine.recover_wal_mb", "MB", "lower", 0},
	{"engine.recover_mb_per_s", "MB/s", "higher", 0},

	{"wal.flush_p50_us", "us", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.pages_per_flush", "ratio", "lower", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.fill_frac", "ratio", "lower", 0},

	{"device.sync_write_p50_us", "us", "lower", 0},
	{"device.write_p50_us", "us", "lower", 0},
	{"device.read_p50_us", "us", "lower", 0},
	{"device.wal_writes_per_txn", "count", "lower", 0},
	{"device.data_writes_per_txn", "count", "lower", 0},
	{"device.data_reads_per_txn", "count", "lower", 0},

	{"buffer.hit_ratio", "ratio", "higher", 0},
	{"buffer.misses_per_txn", "count", "lower", 0},
	{"buffer.evictions_per_txn", "count", "lower", 0},
	{"buffer.dirty_out_per_txn", "count", "lower", 0},
	{"buffer.read_waits", "count", "lower", 0},
	{"buffer.prefetch_issued_per_scan", "count", "lower", 0},
	{"buffer.prefetch_wasted_frac", "ratio", "lower", 0},
	{"buffer.get_hit_ns", "ns", "lower", 0},
	{"buffer.get_miss_us", "us", "lower", 0},

	{"core.appends_per_update", "ratio", "lower", 0},
	{"core.chain_hops_per_walk", "ratio", "lower", 0},
	{"core.sealed_fill", "count", "higher", 0},
	{"core.gc_pages", "count", "higher", 0},
	{"core.gc_relocations_per_page", "ratio", "lower", 0},
	{"core.gc_discarded", "count", "higher", 0},

	{"vidmap.miss_frac", "ratio", "lower", 0},

	{"index.inserts_per_update", "count", "lower", 0},
	{"index.lookups_per_txn", "count", "lower", 0},

	{"sim_write_reduction_pct", "%", "higher", 0},
	{"sim_notpm", "1/min", "higher", 0},
	{"sim_space_ratio", "ratio", "lower", 0},
	{"si.data_mb", "MB", "lower", 0},
	{"core.data_mb", "MB", "lower", 0},
	{"flash.phys_writes", "count", "lower", 0},
	{"flash.erases", "count", "lower", 0},
	{"flash.ftl_write_amp", "ratio", "lower", 0},
	{"buffer.sim_hit_ratio", "ratio", "higher", 0},
	{"tpcc.aborted", "count", "lower", 0},
	{"tpcc.conflicts", "count", "lower", 0},
	{"tpcc.neworder_resp_ms", "ms", "lower", 0},
	{"tpcc.si_wall_s", "s", "lower", 0},
	{"tpcc.sias_wall_s", "s", "lower", 0},
}

// reading is one measured value and the number of samples behind it.
type reading struct {
	value float64
	n     int
}

// readings maps metric names to values. set panics on a repeated name: every
// metric is emitted exactly once.
type readings map[string]reading

func (r readings) set(name string, value float64, n int) {
	if _, dup := r[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	r[name] = reading{value, n}
}

// ordered returns r in declaration order, and an error if r and decls differ
// in names or any value is not finite.
func (r readings) ordered(decls []decl) ([]metric, error) {
	out := make([]metric, 0, len(decls))
	for _, d := range decls {
		v, ok := r[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out = append(out, metric{Name: d.name, Value: v.value, Unit: d.unit, N: v.n})
	}
	if len(r) != len(decls) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(r), len(decls))
	}
	return out, nil
}

// metric is one emitted value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

// quantile returns the q-quantile (nearest rank) of xs; 0 for no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[min(int(q*float64(len(s))), len(s)-1)])
}

// The sandbox's noise comes in bursts of a second or so (a neighbour on the
// host, a collection). An episode's txn_per_s is therefore the median
// throughput of 10 equal-count windows, and a p95 the median of the p95s of
// consecutive windows of 1000 samples: a median over windows leaves the
// bursts out where a plain figure would carry them.
//
// The gated latencies are means, not medians. A loopback round trip between
// 2 clients and 2 sessions on 2 vCPUs takes ~10 us when the peer runs next
// on the same CPU and ~25 us when it has to be woken on the other one, and
// which of the two a run mostly gets changes from run to run, so a median (or
// any percentile) of a transaction of four round trips jumps between two
// values — kv-write's read 0.045 to 0.10 ms over ten runs — while the mean,
// which is what the closed loop's throughput follows, moves by a tenth of
// that. The percentiles are reported per layer, unbounded.
const (
	rateWindows = 10
	tailWindow  = 1000
)

// windowedRate is the median throughput, in 1/s, of rateWindows equal-count
// windows of txns, which must be sorted by completion time.
func windowedRate(txns []txnRec) float64 {
	w := min(rateWindows, len(txns))
	var rates []float64
	var from int64
	for i := 1; i <= w; i++ {
		lo, hi := (i-1)*len(txns)/w, i*len(txns)/w
		to := txns[hi-1].end
		rates = append(rates, ratio(float64(hi-lo)*1e9, float64(to-from)))
		from = to
	}
	return median(rates)
}

// windowedQuantile is the median, over consecutive windows of tailWindow
// samples, of each window's q-quantile; xs is in completion order.
func windowedQuantile(xs []int64, q float64) float64 {
	w := max(len(xs)/tailWindow, 1)
	var qs []float64
	for i := 1; i <= w; i++ {
		qs = append(qs, quantile(xs[(i-1)*len(xs)/w:i*len(xs)/w], q))
	}
	return median(qs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, or 0 when the layer did nothing (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []int64) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return ratio(sum, float64(len(xs)))
}
