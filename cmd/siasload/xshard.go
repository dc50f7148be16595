package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/client"
	"sias/internal/shard"
	"sias/internal/txn"
)

// The xshard workload exercises cross-shard (2PC) atomicity: the keyspace is
// carved into groups of one key per shard, every cross-shard transaction
// rewrites all members of one group to the same fresh token, and the verify
// pass asserts every group still holds one uniform value — all-or-nothing
// regardless of where the server was killed. The group layout is a pure
// function of (shards, groups), so a verify run against a restarted primary
// or a caught-up follower recomputes it without a state file.
//
// With -expect-crash, the run treats a dying server (transport failures,
// client.ErrInDoubt) as its expected end: CI arms SIAS_CRASHPOINT on the
// server, drives this workload until the process kills itself at a 2PC phase
// boundary, restarts the server, and reruns with -xshard-verify.

// xshardGroups lays out the group membership: groups rows of one key per
// shard, assigned deterministically by walking the keyspace upward from 0.
func xshardGroups(shards, groups int) [][]int64 {
	per := make([][]int64, shards)
	filled := 0
	for k := int64(0); filled < shards*groups; k++ {
		s := shard.Of(k, shards)
		if len(per[s]) < groups {
			per[s] = append(per[s], k)
			filled++
		}
	}
	out := make([][]int64, groups)
	for g := range out {
		row := make([]int64, shards)
		for s := 0; s < shards; s++ {
			row[s] = per[s][g]
		}
		out[g] = row
	}
	return out
}

// xshardResult is the machine-readable xshard run report (-json).
type xshardResult struct {
	Workload  string  `json:"workload"`
	Shards    int     `json:"shards"`
	Groups    int     `json:"groups"`
	Committed int64   `json:"committed"`
	Conflicts int64   `json:"conflicts"`
	InDoubt   int64   `json:"in_doubt"`
	Crashed   bool    `json:"crashed"`
	Elapsed   float64 `json:"elapsed_sec"`
	// Trace is the per-stage span breakdown from /debug/traces; present when
	// -trace-sample and -metrics-addr are both set. For this workload the
	// 2PC stages (route, prepare, decide, outcome) dominate.
	Trace *traceBreakdown `json:"trace,omitempty"`
}

// runXShard preloads the groups with single-shard transactions (one batch
// per shard, so no 2PC record is logged before the churn starts), then churns
// cross-shard group rewrites from cfg.Workers workers. Unless -expect-crash
// is set, the run ends with an in-process verify pass.
func runXShard(cfg loadConfig, jsonPath string, groups int, expectCrash bool) error {
	c, err := client.Dial(cfg.Addr, client.Options{PoolSize: cfg.Workers, TraceSample: cfg.TraceSample})
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.Addr, err)
	}
	defer c.Close()

	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	shards := st.Router.Shards
	if shards < 2 {
		return fmt.Errorf("xshard workload needs >= 2 shards, server has %d", shards)
	}
	members := xshardGroups(shards, groups)

	// Preload: every member of shard s in one single-shard transaction.
	// Idempotent across runs (insert falls back to update).
	for s := 0; s < shards; s++ {
		tx, err := c.Begin()
		if err != nil {
			return fmt.Errorf("preload begin: %w", err)
		}
		for g := 0; g < groups; g++ {
			k := members[g][s]
			val := []byte(fmt.Sprintf("g%d-init", g))
			if err := tx.Insert(k, val); err != nil {
				if uerr := tx.Update(k, val); uerr != nil {
					tx.Abort()
					return fmt.Errorf("preload key %d: %w", k, err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("preload commit shard %d: %w", s, err)
		}
	}
	fmt.Printf("preloaded %d groups x %d shards\n", groups, shards)

	var (
		committed atomic.Int64
		conflicts atomic.Int64
		inDoubt   atomic.Int64
		crashed   atomic.Bool
		stop      atomic.Bool
	)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*104729 + 7))
			for i := 0; i < cfg.Txns && !stop.Load(); i++ {
				g := rng.Intn(groups)
				token := []byte(fmt.Sprintf("g%d-w%d-i%d", g, w, i))
				err := xshardTxn(c, members[g], token)
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, txn.ErrSerialization) || errors.Is(err, txn.ErrLockTimeout):
					conflicts.Add(1)
				case expectCrash:
					// Any transport-level failure is the server dying at its
					// crashpoint — the event this mode waits for.
					if errors.Is(err, client.ErrInDoubt) {
						inDoubt.Add(1)
					}
					crashed.Store(true)
					stop.Store(true)
				default:
					stop.Store(true)
					fmt.Fprintf(os.Stderr, "worker %d txn %d: %v\n", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := xshardResult{
		Workload: "xshard", Shards: shards, Groups: groups,
		Committed: committed.Load(), Conflicts: conflicts.Load(),
		InDoubt: inDoubt.Load(), Crashed: crashed.Load(),
		Elapsed: elapsed.Seconds(),
	}
	fmt.Printf("xshard churn: %d committed, %d conflicts, %d in-doubt, crashed=%v in %.2fs\n",
		res.Committed, res.Conflicts, res.InDoubt, res.Crashed, res.Elapsed)
	if cfg.MetricsAddr != "" && cfg.TraceSample > 0 && !res.Crashed {
		if bd, err := scrapeTraces(cfg.MetricsAddr, 1000); err != nil {
			fmt.Fprintf(os.Stderr, "trace scrape: %v\n", err)
		} else if bd != nil {
			res.Trace = bd
			printTraceBreakdown(bd)
		}
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if expectCrash {
		if !res.Crashed {
			return fmt.Errorf("xshard: -expect-crash set but the server survived %d committed transactions", res.Committed)
		}
		return nil
	}
	if res.Crashed || res.Committed == 0 {
		return fmt.Errorf("xshard churn failed: committed=%d crashed=%v", res.Committed, res.Crashed)
	}
	return verifyXShard(cfg.Addr, groups)
}

// xshardTxn rewrites every member of one group to the same token in a single
// cross-shard transaction.
func xshardTxn(c *client.Client, keys []int64, token []byte) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := tx.Update(k, token); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// verifyXShard rereads every group in one snapshot transaction and asserts
// all members hold the identical value — the all-or-nothing property 2PC
// guarantees across any crash. Works against the restarted primary and
// against a caught-up follower (read-only transactions).
func verifyXShard(addr string, groups int) error {
	c, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	shards := st.Router.Shards
	if shards < 2 {
		return fmt.Errorf("xshard verify needs >= 2 shards, server has %d", shards)
	}
	members := xshardGroups(shards, groups)

	tx, err := c.Begin()
	if err != nil {
		return fmt.Errorf("verify begin: %w", err)
	}
	defer tx.Abort()
	torn := 0
	for g, keys := range members {
		var first []byte
		for j, k := range keys {
			v, err := tx.Get(k)
			if err != nil {
				return fmt.Errorf("verify group %d key %d: %w", g, k, err)
			}
			if j == 0 {
				first = v
			} else if string(v) != string(first) {
				torn++
				fmt.Fprintf(os.Stderr, "TORN group %d: key %d = %q, key %d = %q\n",
					g, keys[0], first, k, v)
				break
			}
		}
	}
	if torn > 0 {
		return fmt.Errorf("xshard verify: %d of %d groups torn — cross-shard atomicity violated", torn, groups)
	}
	fmt.Printf("xshard verify: %d groups x %d shards uniform — all-or-nothing holds\n", groups, shards)
	return nil
}
