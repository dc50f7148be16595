package shard_test

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"sias/internal/engine"
	"sias/internal/shard"
)

// fillStats gives every numeric leaf of an engine.Stats a distinct value by
// plain reflection — no tags consulted — so a field the tag walker does not
// know about is still filled, and is then found missing from the results.
// Slices get two elements; the two tables are named alike in every snapshot.
func fillStats(next *int64) engine.Stats {
	var s engine.Stats
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				fill(v.Index(i))
				if name := v.Index(i); name.Kind() == reflect.Struct && name.FieldByName("Name").IsValid() {
					name.FieldByName("Name").SetString(fmt.Sprintf("t%d", i))
				}
			}
		case reflect.Float64:
			*next++
			v.SetFloat(float64(*next))
		case reflect.Int, reflect.Int64:
			*next++
			v.SetInt(*next)
		case reflect.Uint64:
			*next++
			v.SetUint(uint64(*next))
		case reflect.String:
		default:
			panic("fillStats: unhandled kind " + v.Kind().String())
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	return s
}

// leaves flattens the numeric leaves of s to path -> value.
func leaves(s engine.Stats) map[string]float64 {
	out := map[string]float64{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Float64:
			out[path] = v.Float()
		case reflect.Int, reflect.Int64:
			out[path] = float64(v.Int())
		case reflect.Uint64:
			out[path] = float64(v.Uint())
		}
	}
	walk("", reflect.ValueOf(s))
	return out
}

var sliceIndex = regexp.MustCompile(`\[\d+\]`)

// TestAggregateAndDeltaCoverEveryLeaf is the completeness check for the two
// derived operations: every numeric leaf of engine.Stats must be summed by
// Aggregate and subtracted by Sub, except the leaves listed here with the
// semantics they have instead. A field added without a metric tag, or
// tagged with an aggregation this table does not expect, fails by name.
func TestAggregateAndDeltaCoverEveryLeaf(t *testing.T) {
	var n int64
	ss := []engine.Stats{fillStats(&n), fillStats(&n), fillStats(&n)}
	in := []map[string]float64{leaves(ss[0]), leaves(ss[1]), leaves(ss[2])}

	ratios := func(m map[string]float64) (pool, vmap float64) {
		pool = m[".Pool.Hits"] / (m[".Pool.Hits"] + m[".Pool.Misses"])
		vmap = m[".VMapResidencyHits"] / (m[".VMapResidencyHits"] + m[".VMapResidencyMisses"])
		return
	}

	agg := leaves(shard.Aggregate(ss))
	aggPool, aggVMap := ratios(agg)
	notSummed := map[string]float64{ // rule key (slice indices stripped) -> expected value of leaf [0]
		".CommitMaxBatch": in[2][".CommitMaxBatch"], // max; values grow with each snapshot
		// Shards recover in parallel: the slowest shard's phase is the restart's.
		".RecoverAnalyzeSeconds": in[2][".RecoverAnalyzeSeconds"],
		".RecoverRedoSeconds":    in[2][".RecoverRedoSeconds"],
		".RecoverRebuildSeconds": in[2][".RecoverRebuildSeconds"],
		".PoolHitRatio":          aggPool,
		".VMapHitRatio":          aggVMap,
		".WALDurableLSN":         0, // a position in one shard's log
	}
	for path := range in[0] {
		rule := sliceIndex.ReplaceAllString(path, "")
		want := in[0][path] + in[1][path] + in[2][path]
		switch {
		case rule == ".Pool.PartitionEvictions":
			continue // concatenated, checked below
		case rule == ".Tables.Indexes":
			want = in[0][path] // a catalog fact, the same on every shard
		default:
			if w, ok := notSummed[rule]; ok {
				want = w
			}
		}
		if agg[path] != want {
			t.Errorf("Aggregate%s = %v, want %v", path, agg[path], want)
		}
	}
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf(".Pool.PartitionEvictions[%d]", i)
		if want := in[i/2][fmt.Sprintf(".Pool.PartitionEvictions[%d]", i%2)]; agg[path] != want {
			t.Errorf("Aggregate%s = %v, want %v (stripes of all shards, in order)", path, agg[path], want)
		}
	}
	if len(agg) != len(in[0])+4 {
		t.Errorf("aggregate has %d leaves, want %d", len(agg), len(in[0])+4)
	}

	delta := leaves(ss[2].Sub(ss[0]))
	dPool, dVMap := ratios(delta)
	gauges := map[string]float64{ // not differences: the later snapshot's value
		".CommitMaxBatch": 0, ".PoolPartitions": 0, ".AllocatedPages": 0, ".WALDurableLSN": 0,
		".WALPendingBytes": 0, ".Pool.IOPending": 0, ".Pool.ResidentBytes": 0, ".Tables.Rows": 0, ".Tables.Indexes": 0, ".Tables.IndexEntries": 0,
		".RecoverAnalyzeSeconds": 0, ".RecoverRedoSeconds": 0, ".RecoverRebuildSeconds": 0, ".RecoverLogBytes": 0,
	}
	for path := range in[0] {
		rule := sliceIndex.ReplaceAllString(path, "")
		want := in[2][path] - in[0][path]
		switch _, gauge := gauges[rule]; {
		case gauge:
			want = in[2][path]
		case rule == ".PoolHitRatio":
			want = dPool
		case rule == ".VMapHitRatio":
			want = dVMap
		}
		if delta[path] != want {
			t.Errorf("Sub%s = %v, want %v", path, delta[path], want)
		}
	}
	if after := leaves(ss[2]); !reflect.DeepEqual(after, in[2]) {
		t.Error("Sub modified its receiver")
	}
}
