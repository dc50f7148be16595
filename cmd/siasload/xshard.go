package main

import (
	"fmt"
	"math/rand"
	"os"

	"sias/internal/client"
	"sias/internal/shard"
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

// xshardWorkload preloads the groups with single-shard transactions (one
// batch per shard, so no 2PC record is logged before the churn starts), then
// churns cross-shard group rewrites. The first failure ends the run; unless
// expectCrash makes it the expected end, the run ends with a verify pass.
func xshardWorkload(cfg *loadConfig, expectCrash bool) (*workload, error) {
	shards, groups := cfg.Shards, cfg.Groups
	if shards < 2 {
		return nil, fmt.Errorf("xshard workload needs >= 2 shards, server has %d", shards)
	}
	members := xshardGroups(shards, groups)
	return &workload{
		desc:  fmt.Sprintf("xshard (%d groups x %d shards)", groups, shards),
		items: shards * groups, batch: groups,
		put: func(tx *client.Tx, i int, update bool) error {
			g := i % groups
			k, val := members[g][i/groups], []byte(fmt.Sprintf("g%d-init", g))
			if update {
				return tx.Update(k, val)
			}
			return tx.Insert(k, val)
		},
		get: func(tx *client.Tx, i int) error {
			_, err := tx.Get(members[i%groups][i/groups])
			return err
		},
		txn: func(c *client.Client, rng *rand.Rand, w, i int) (int, error) {
			g := rng.Intn(groups)
			return -1, xshardTxn(c, members[g], []byte(fmt.Sprintf("g%d-w%d-i%d", g, w, i)))
		},
		stopOnFailure: true,
		expectCrash:   expectCrash,
		after: func(_ *client.Client, res *report) error {
			switch {
			case expectCrash && !res.Crashed:
				return fmt.Errorf("xshard: -expect-crash set but the server survived %d committed transactions", res.Committed)
			case expectCrash:
				return nil
			case res.Failures > 0 || res.Committed == 0:
				return fmt.Errorf("xshard churn failed: committed=%d failures=%d", res.Committed, res.Failures)
			}
			return verifyXShard(cfg.Addr, groups)
		},
	}, nil
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
