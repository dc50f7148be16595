// Index workload (-workload index): typed rows in a catalog table with a
// secondary index, exercising the SIAS claim the kv workload cannot — that
// non-indexed-column updates write zero index pages — plus AS OF reads.
//
// The workload creates table "load_orders" (id pk, grp indexed, note) and
// index "by_grp", preloads -keys rows spread over groups, snapshots the
// database, then runs the closed loop: reads are secondary-index lookups of
// a random group, writes are row updates (mostly of the non-indexed note
// column; 1 in 8 moves the row to a new group through the index). After the
// run it re-reads a sample of groups AS OF the pre-churn snapshot and
// verifies the counts are unchanged.
//
// With -state-out FILE the snapshot tokens and per-group counts are written
// to FILE; a later `siasload -verify-state FILE` run — typically against a
// server that was SIGKILLed and restarted — checks that the catalog, the
// index and the AS OF snapshot all survived recovery.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"

	"sias/internal/client"
	"sias/internal/engine"
	"sias/internal/shard"
	"sias/internal/tuple"
)

const (
	idxTable = "load_orders"
	idxIndex = "by_grp"
	idxCol   = "grp"
)

func idxSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeInt64},
		tuple.Column{Name: idxCol, Type: tuple.TypeInt64},
		tuple.Column{Name: "note", Type: tuple.TypeString},
	)
}

// indexReport is the -workload index slice of the report; the engine's
// IndexLookups and IndexInserts deltas are in its engine field.
type indexReport struct {
	Table         string  `json:"table"`
	Index         string  `json:"index"`
	Groups        int64   `json:"groups"`
	RowsReturned  int64   `json:"rows_returned"` // rows gathered by lookups
	LookupsPerSec float64 `json:"lookups_per_sec"`
	// AsOfGroupsChecked sampled groups were re-read AS OF the pre-churn
	// snapshot after the run; AsOfVerified is whether every count matched.
	AsOfGroupsChecked int  `json:"asof_groups_checked"`
	AsOfVerified      bool `json:"asof_verified"`
}

// indexState is the -state-out file: everything -verify-state needs to prove
// the catalog and a pre-crash snapshot survived a restart.
type indexState struct {
	Table  string           `json:"table"`
	Index  string           `json:"index"`
	Tokens []uint64         `json:"tokens"`
	Groups map[string]int64 `json:"group_counts"` // group -> rows at the snapshot
}

// groupsFor sizes the group space so lookups return a handful of rows each.
func groupsFor(keys int64) int64 {
	g := keys / 64
	if g < 4 {
		g = 4
	}
	return g
}

// sampleGroups picks a deterministic spread of groups to track.
func sampleGroups(groups int64) []int64 {
	n := int64(8)
	if n > groups {
		n = groups
	}
	out := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, i*groups/n)
	}
	return out
}

// groupCounts reads the tracked groups' row counts through the index.
func groupCounts(tx *client.Tx, groups []int64) (map[string]int64, error) {
	out := make(map[string]int64, len(groups))
	for _, g := range groups {
		rows, err := tx.IndexRange(idxTable, idxIndex, g, g, 0)
		if err != nil {
			return nil, fmt.Errorf("lookup group %d: %w", g, err)
		}
		out[strconv.FormatInt(g, 10)] = int64(len(rows))
	}
	return out, nil
}

// indexWorkload creates the table and index (reusing them if they exist),
// preloads -keys rows, takes the AS OF baseline before the run and verifies
// it after; with statePath set it also writes the baseline there.
func indexWorkload(c *client.Client, cfg *loadConfig, statePath string) (*workload, error) {
	if err := c.CreateTable(idxTable, idxSchema(), "id"); err != nil && !errors.Is(err, engine.ErrExists) {
		return nil, fmt.Errorf("create table: %w", err)
	}
	if err := c.CreateIndex(idxTable, idxIndex, idxCol); err != nil && !errors.Is(err, engine.ErrExists) {
		return nil, fmt.Errorf("create index: %w", err)
	}
	run := *cfg
	groups := groupsFor(run.Keys)
	tracked := sampleGroups(groups)
	var (
		tokens          []uint64
		baseCounts      map[string]int64
		rowsOut, looked atomic.Int64
	)
	return &workload{
		desc: fmt.Sprintf("index (%d ops/txn, %.0f%% reads, %d rows in %d groups)",
			opsPerTxn, run.ReadFrac*100, run.Keys, groups),
		items: int(run.Keys), batch: 256,
		put: func(tx *client.Tx, i int, update bool) error {
			row := tuple.Row{int64(i), int64(i) % groups, "seed"}
			if update {
				return tx.UpdateRow(idxTable, row)
			}
			return tx.InsertRow(idxTable, row)
		},
		get: func(tx *client.Tx, i int) error {
			_, err := tx.GetRow(idxTable, int64(i))
			return err
		},
		txn: func(c *client.Client, rng *rand.Rand, _, _ int) (int, error) {
			home, rows, lookups, err := idxTxn(c, rng, run, groups)
			if err == nil {
				rowsOut.Add(rows)
				looked.Add(lookups)
			}
			return home, err
		},
		// The AS OF baseline: snapshot tokens and the tracked groups' counts.
		before: func(c *client.Client) error {
			var err error
			if tokens, err = c.Snapshot(); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			base, err := c.Begin()
			if err != nil {
				return err
			}
			if baseCounts, err = groupCounts(base, tracked); err != nil {
				base.Abort()
				return err
			}
			return base.Commit()
		},
		// AS OF the pre-churn snapshot the tracked groups must count exactly
		// as they did before the run, no matter what the churn moved.
		after: func(c *client.Client, res *report) error {
			asOf, err := c.BeginAt(tokens)
			if err != nil {
				return fmt.Errorf("begin AS OF: %w", err)
			}
			asOfCounts, err := groupCounts(asOf, tracked)
			asOf.Abort()
			if err != nil {
				return fmt.Errorf("AS OF lookups: %w", err)
			}
			verified := true
			for g, want := range baseCounts {
				if asOfCounts[g] != want {
					verified = false
					fmt.Fprintf(os.Stderr, "AS OF mismatch: group %s has %d rows at snapshot, expected %d\n", g, asOfCounts[g], want)
				}
			}
			res.Index = &indexReport{
				Table: idxTable, Index: idxIndex, Groups: groups,
				RowsReturned:      rowsOut.Load(),
				LookupsPerSec:     float64(looked.Load()) / res.ElapsedSec,
				AsOfGroupsChecked: len(tracked),
				AsOfVerified:      verified,
			}
			if statePath != "" {
				if err := writeJSON(statePath, indexState{
					Table: idxTable, Index: idxIndex, Tokens: tokens, Groups: baseCounts,
				}); err != nil {
					return err
				}
				fmt.Printf("wrote snapshot state %s\n", statePath)
			}
			if !verified {
				return fmt.Errorf("AS OF verification failed")
			}
			return nil
		},
	}, nil
}

// idxTxn executes one typed transaction: index lookups for reads, row
// updates for writes (1 in 8 moves the row to another group, the rest touch
// only the non-indexed note column — the zero-index-page-write path).
func idxTxn(c *client.Client, rng *rand.Rand, cfg loadConfig, groups int64) (home int, rows, lookups int64, err error) {
	tx, err := c.Begin()
	if err != nil {
		return -1, 0, 0, err
	}
	home = noHome
	for i := 0; i < opsPerTxn; i++ {
		if rng.Float64() < cfg.ReadFrac {
			g := rng.Int63n(groups)
			got, lerr := tx.IndexRange(idxTable, idxIndex, g, g, 0)
			if lerr != nil {
				tx.Abort()
				return -1, rows, lookups, lerr
			}
			rows += int64(len(got))
			lookups++
			home = -1 // index lookups fan out across every shard
			continue
		}
		id := rng.Int63n(cfg.Keys)
		grp := id % groups
		if rng.Intn(8) == 0 {
			grp = rng.Int63n(groups) // indexed-column update: row changes group
		}
		if uerr := tx.UpdateRow(idxTable, tuple.Row{id, grp, "churn"}); uerr != nil {
			tx.Abort()
			return -1, rows, lookups, uerr
		}
		home = joinHome(home, shard.Of(id, cfg.Shards))
	}
	return max(home, -1), rows, lookups, tx.Commit()
}

// verifyState checks a recovered server against a -state-out file: the
// catalog still lists the table and index, live lookups work, and an AS OF
// read at the pre-crash tokens reproduces the recorded group counts.
func verifyState(addr, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var st indexState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	c, err := client.Dial(addr, client.Options{PoolSize: 2})
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()

	tds, err := c.ListTables()
	if err != nil {
		return fmt.Errorf("list tables: %w", err)
	}
	found := false
	for _, td := range tds {
		if td.Name != st.Table {
			continue
		}
		for _, ix := range td.Indexes {
			if ix.Name == st.Index {
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("recovered catalog lost %s/%s", st.Table, st.Index)
	}

	asOf, err := c.BeginAt(st.Tokens)
	if err != nil {
		return fmt.Errorf("begin AS OF %v: %w", st.Tokens, err)
	}
	defer asOf.Abort()
	checked := 0
	for g, want := range st.Groups {
		grp, err := strconv.ParseInt(g, 10, 64)
		if err != nil {
			return fmt.Errorf("state file group %q: %w", g, err)
		}
		rows, err := asOf.IndexRange(st.Table, st.Index, grp, grp, 0)
		if err != nil {
			return fmt.Errorf("AS OF lookup group %d: %w", grp, err)
		}
		if int64(len(rows)) != want {
			return fmt.Errorf("AS OF group %d: %d rows after recovery, state file recorded %d", grp, len(rows), want)
		}
		checked++
	}
	fmt.Printf("verify ok: %s/%s recovered; %d groups match AS OF snapshot %v\n", st.Table, st.Index, checked, st.Tokens)
	return nil
}
