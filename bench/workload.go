package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync/atomic"

	"sias/internal/client"
	"sias/internal/shard"
)

// clients is the closed loop's size: 2 goroutines on 2 connections, fixed
// rather than nproc-scaled so a run means the same load on every machine.
const clients = 2

// scanRows is the row count of one scan transaction.
const scanRows = 128

// Transaction classes.
const (
	classW = iota // write txn: Begin, 2x Update, Commit
	classR        // read-only point txn: Begin, Gets, Commit
	classS        // scan txn: Begin, one 128-row Scan, Commit
	numClass
)

var classNames = [numClass]string{"wtxn", "rtxn", "scan"}

// spec describes one wire workload. The names are fixed: later issues refer
// to them.
type spec struct {
	name string
	why  string

	shards     int
	poolFrames int  // total, split across shards like siasserver -pool
	keys       int  // rows preloaded (xshard: 2 per group)
	valueSize  int  // bytes per value
	xshard     bool // keys are (shard 0, shard 1) pairs written together
	// mix is the share of each class per 100 transactions.
	mix [numClass]int
	// rate sizes the measured phase: each client runs rate x -seconds
	// transactions, split evenly over the episodes; about -seconds/2 to
	// -seconds of work on the sizing machine.
	rate int
}

var wireSpecs = []spec{
	{
		name:   "kv-write",
		why:    "commit path: 2 updates per txn on a dataset the pool holds many times over, so wire round trips, engine commit and WAL flush do the work and buffer changes must not move it",
		shards: 1, poolFrames: 16384, keys: 20000, valueSize: 256,
		mix: [numClass]int{classW: 100}, rate: 5000,
	},
	{
		name:   "mixed-cold",
		why:    "dataset 5x the pool and sync free: point reads, 128-row scans and updates share one pool, so buffer misses, dirty write-back, chain walks and readahead dominate",
		shards: 1, poolFrames: 1024, keys: 40000, valueSize: 1000,
		mix: [numClass]int{classW: 45, classR: 45, classS: 10}, rate: 2500,
	},
	{
		name:   "xshard-2pc",
		why:    "every txn touches one key on each of 2 shards, so the 2PC coordinator (prepare, decide, outcome flushes) does the work; also the atomic-visibility probe",
		shards: 2, poolFrames: 8192, keys: 2048, valueSize: 256, xshard: true,
		mix: [numClass]int{classW: 50, classR: 50}, rate: 4000,
	},
}

const simName = "paper-sim"
const simWhy = "the paper's claim on its own simulator: TPC-C on SI-t1 vs SIAS-t2 over a simulated 2-SSD RAID-0 in virtual time; only core/si/buffer/index/flash CPU work, with GC, sealing and checkpoints firing"

// Value layout: key(8) seq(8) writer(1), then the 8-byte word pattern(key,
// seq) repeated to valueSize, so a misplaced or torn value fails the check.
const valueHeader = 17

func pattern(key int64, seq uint64) uint64 {
	x := uint64(key)*0x9E3779B97F4A7C15 ^ (seq+1)*0xBF58476D1CE4E5B9
	return x ^ x>>29
}

func encodeValue(buf []byte, key int64, seq uint64, writer int) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	buf[16] = byte(writer)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], pattern(key, seq))
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = w[(i-valueHeader)%8]
	}
}

// oracle is the model the run is checked against. Every key has exactly one
// writer (its owner), so acked[i] and attempted[i] bound what any reader may
// legally see: a version at least as new as the last commit acknowledged
// before the reader's Begin, and no newer than the last Update sent.
type oracle struct {
	sp        *spec
	keys      []int64 // key of index i
	acked     []atomic.Uint64
	attempted []atomic.Uint64
}

func newOracle(sp *spec) *oracle {
	o := &oracle{sp: sp, keys: make([]int64, sp.keys)}
	if sp.xshard {
		// One key per shard and group, found by walking the keyspace upward
		// (as siasload -workload xshard does): index 2g lives on shard 0,
		// 2g+1 on shard 1.
		groups := sp.keys / 2
		var per [2][]int64
		for k := int64(0); len(per[0]) < groups || len(per[1]) < groups; k++ {
			if s := shard.Of(k, 2); len(per[s]) < groups {
				per[s] = append(per[s], k)
			}
		}
		for g := 0; g < groups; g++ {
			o.keys[2*g], o.keys[2*g+1] = per[0][g], per[1][g]
		}
	} else {
		for i := range o.keys {
			o.keys[i] = int64(i)
		}
	}
	o.acked = make([]atomic.Uint64, sp.keys)
	o.attempted = make([]atomic.Uint64, sp.keys)
	return o
}

// owner is the only client that writes index i: each client owns one half of
// the keyspace (xshard: of the groups), so no two clients ever write the same
// key and a serialization conflict is a failure, not an expected outcome.
func (o *oracle) owner(i int) int {
	if o.sp.xshard {
		i &^= 1
	}
	return i * clients / len(o.keys)
}

// sorted returns the indices in ascending key order (the order a scan
// returns them in).
func (o *oracle) sorted() []int {
	idx := make([]int, len(o.keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return o.keys[idx[a]] < o.keys[idx[b]] })
	return idx
}

// checkValue verifies that val is a version of index i with lo <= seq <= hi
// and returns its seq.
func (o *oracle) checkValue(val []byte, i int, lo, hi uint64) (uint64, error) {
	key := o.keys[i]
	if len(val) != o.sp.valueSize {
		return 0, fmt.Errorf("key %d: value has %d bytes, want %d", key, len(val), o.sp.valueSize)
	}
	if got := int64(binary.LittleEndian.Uint64(val[0:])); got != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	seq := binary.LittleEndian.Uint64(val[8:])
	if int(val[16]) != o.owner(i) {
		return seq, fmt.Errorf("key %d: written by client %d, owner is %d", key, val[16], o.owner(i))
	}
	if seq < lo {
		return seq, fmt.Errorf("key %d: stale seq %d, acknowledged %d (lost write)", key, seq, lo)
	}
	if seq > hi {
		return seq, fmt.Errorf("key %d: seq %d was never written (last sent %d)", key, seq, hi)
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], pattern(key, seq))
	for j := valueHeader; j < len(val); j++ {
		if val[j] != w[(j-valueHeader)%8] {
			return seq, fmt.Errorf("key %d seq %d: payload corrupt at byte %d", key, seq, j)
		}
	}
	return seq, nil
}

// checkScan verifies a scan over sorted positions [pos, pos+len(lo)): exact
// cardinality, ascending order without duplicates or strangers, every value a
// legal version. seen, if non-nil, receives each index's seq.
func (o *oracle) checkScan(rows []client.KV, order []int, pos int, lo []uint64, seen []uint64) error {
	if len(rows) != len(lo) {
		return fmt.Errorf("scan at key %d: %d rows, want %d", o.keys[order[pos]], len(rows), len(lo))
	}
	for j, kv := range rows {
		i := order[pos+j]
		if kv.Key != o.keys[i] {
			return fmt.Errorf("scan at key %d: row %d has key %d, want %d (duplicate, gap or disorder)",
				o.keys[order[pos]], j, kv.Key, o.keys[i])
		}
		seq, err := o.checkValue(kv.Val, i, lo[j], o.attempted[i].Load())
		if err != nil {
			return err
		}
		if seen != nil {
			seen[i] = seq
		}
	}
	return nil
}

// txnPlan is one generated transaction: its class and the key indices (or,
// for a scan, the sorted position) it touches.
type txnPlan struct {
	class int
	idx   [4]int
	n     int
}

// generator turns a seed into each client's transaction stream. The program
// under test only ever sees these generated inputs.
type generator struct {
	sp  *spec
	rng [clients]*rand.Rand
}

func newGenerator(sp *spec, seed int64) *generator {
	g := &generator{sp: sp}
	for c := range g.rng {
		g.rng[c] = rand.New(rand.NewSource(seed*7919 + int64(c)))
	}
	return g
}

func (g *generator) next(c int) txnPlan {
	class, p := 0, g.rng[c].Intn(100)
	for class < numClass-1 && p >= g.sp.mix[class] {
		p -= g.sp.mix[class]
		class++
	}
	return g.plan(c, class)
}

// plan draws the keys of one transaction of the given class for client c.
func (g *generator) plan(c, class int) txnPlan {
	r, n := g.rng[c], g.sp.keys
	t := txnPlan{class: class}
	switch {
	case class == classS:
		t.idx[0], t.n = r.Intn(n-scanRows+1), 1
	case g.sp.xshard:
		groups := n / 2
		grp := r.Intn(groups)
		if class == classW {
			grp = c*groups/clients + r.Intn(groups/clients)
		}
		t.idx[0], t.idx[1], t.n = 2*grp, 2*grp+1, 2
	case class == classW:
		half := n / clients
		a := r.Intn(half)
		b := r.Intn(half - 1)
		if b >= a {
			b++
		}
		t.idx[0], t.idx[1], t.n = c*half+a, c*half+b, 2
	default:
		for j := range t.idx {
			t.idx[j] = r.Intn(n)
		}
		t.n = len(t.idx)
	}
	return t
}

// streamHash fingerprints the first n transactions of every client's stream.
func streamHash(sp *spec, seed int64, n int) uint64 {
	g := newGenerator(sp, seed)
	h := fnv.New64a()
	var b [8]byte
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			t := g.next(c)
			binary.LittleEndian.PutUint64(b[:], uint64(t.class)<<56|uint64(t.n)<<48)
			h.Write(b[:])
			for _, x := range t.idx[:t.n] {
				binary.LittleEndian.PutUint64(b[:], uint64(x))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}
