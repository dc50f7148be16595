package obs

import (
	"reflect"
	"strings"
	"testing"
)

type devStats struct {
	Writes int64 `metric:"t_dev_writes_total,counter" help:"Writes."`
	Busy   int64 `metric:"-,counter"`
}

type tabStats struct {
	Name    string
	Rows    int64 `metric:"t_table_rows,gauge" help:"Rows."`
	Indexes int64 `metric:"t_table_indexes,gauge,noagg" help:"Indexes."`
	Hops    int64 `metric:"t_table_hops_total,counter" help:"Hops."`
}

type lagStats struct {
	Promoted bool    `metric:"t_promoted,gauge" help:"Promoted."`
	Lag      []int64 `metric:"t_lag,gauge" help:"Lag." label:"shard"`
}

type engStats struct {
	Commits  int64      `metric:"t_commits_total,counter" help:"Commits."`
	Aborts   int64      `metric:"t_aborts_total,counter" help:"Aborts." label:"reason=conflict"`
	MaxBatch int64      `metric:"-,gauge,max"`
	Ratio    float64    `metric:"t_ratio,gauge,noagg" help:"Ratio."`
	LSN      uint64     `metric:"t_lsn,gauge,noagg" help:"LSN."`
	Data     devStats   `label:"device=data"`
	WAL      devStats   `label:"device=wal"`
	Stripes  []int64    `metric:"t_stripe_evictions_total,counter" help:"Evictions." label:"stripe"`
	Tables   []tabStats `label:"table=Name"`
	Untagged int64
	Note     string
}

type reply struct {
	Total  engStats   `metric:"-"`
	Shards []engStats `label:"shard"`
	Repl   *lagStats
}

func sample() reply {
	return reply{
		Total: engStats{Commits: 99},
		Shards: []engStats{
			{Commits: 3, Aborts: 1, MaxBatch: 4, Ratio: 0.5, LSN: 10, Data: devStats{Writes: 7}, WAL: devStats{Writes: 9},
				Stripes: []int64{1, 2}, Tables: []tabStats{{Name: "kv", Rows: 5, Indexes: 1, Hops: 2}}},
			{Commits: 4},
		},
	}
}

func TestCollectStructExposition(t *testing.T) {
	reg := NewRegistry()
	snaps := 0
	cur := sample()
	CollectStruct(reg, func() reply { snaps++; return cur })

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if snaps != 1 {
		t.Fatalf("one WriteText took %d snapshots, want 1", snaps)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP t_commits_total Commits.\n# TYPE t_commits_total counter\nt_commits_total{shard=\"0\"} 3\nt_commits_total{shard=\"1\"} 4\n",
		"t_aborts_total{reason=\"conflict\",shard=\"0\"} 1\n",
		"t_ratio{shard=\"0\"} 0.5\n",
		"t_lsn{shard=\"0\"} 10\n",
		"t_dev_writes_total{device=\"data\",shard=\"0\"} 7\n",
		"t_dev_writes_total{device=\"wal\",shard=\"0\"} 9\n",
		"t_stripe_evictions_total{shard=\"0\",stripe=\"1\"} 2\n",
		"t_table_rows{shard=\"0\",table=\"kv\"} 5\n",
		// A nil pointer has no series, but its families still render.
		"# HELP t_promoted Promoted.\n# TYPE t_promoted gauge\n# HELP t_lag Lag.\n# TYPE t_lag gauge\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, absent := range []string{"99", "Untagged", "MaxBatch", "Busy", "t_promoted 0"} {
		if strings.Contains(text, absent) {
			t.Errorf("exposition contains %q", absent)
		}
	}

	cur.Repl = &lagStats{Promoted: true, Lag: []int64{0, 12}}
	sb.Reset()
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t_promoted 1\n", "t_lag{shard=\"1\"} 12\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestAddAndSub(t *testing.T) {
	a := sample().Shards[0]
	b := engStats{Commits: 10, Aborts: 2, MaxBatch: 3, Ratio: 0.9, LSN: 50, Data: devStats{Writes: 1, Busy: 4},
		Stripes: []int64{5}, Untagged: 8,
		Tables: []tabStats{{Name: "orders", Rows: 1}, {Name: "kv", Rows: 2, Indexes: 1, Hops: 3}}}

	var sum engStats
	Add(&sum, a)
	Add(&sum, b)
	want := engStats{Commits: 13, Aborts: 3, MaxBatch: 4, Data: devStats{Writes: 8, Busy: 4}, WAL: devStats{Writes: 9},
		Stripes: []int64{1, 2, 5},
		Tables:  []tabStats{{Name: "kv", Rows: 7, Indexes: 1, Hops: 5}, {Name: "orders", Rows: 1}}}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("Add:\n got %+v\nwant %+v", sum, want)
	}

	before := sum
	after := sum
	after.Tables = append([]tabStats(nil), sum.Tables...)
	after.Stripes = append([]int64(nil), sum.Stripes...)
	after.Commits, after.MaxBatch, after.LSN, after.Ratio = 20, 6, 70, 0.25
	after.WAL.Writes = 12
	after.Stripes[2] = 9
	after.Stripes = append(after.Stripes, 4)
	after.Tables[0].Rows, after.Tables[0].Hops = 9, 8
	after.Tables = append(after.Tables, tabStats{Name: "new", Rows: 3, Hops: 1})
	keep := after
	keep.Tables = append([]tabStats(nil), after.Tables...)
	keep.Stripes = append([]int64(nil), after.Stripes...)

	d := Sub(after, before)
	wantD := engStats{Commits: 7, MaxBatch: 6, LSN: 70, Ratio: 0.25, WAL: devStats{Writes: 3},
		Stripes: []int64{0, 0, 4, 4},
		Tables:  []tabStats{{Name: "kv", Rows: 9, Indexes: 1, Hops: 3}, {Name: "orders", Rows: 1}, {Name: "new", Rows: 3, Hops: 1}}}
	if !reflect.DeepEqual(d, wantD) {
		t.Errorf("Sub:\n got %+v\nwant %+v", d, wantD)
	}
	if !reflect.DeepEqual(after, keep) {
		t.Errorf("Sub modified its argument: %+v", after)
	}
}

func TestBadMetricTagPanics(t *testing.T) {
	for _, v := range []any{
		struct {
			X int64 `metric:"t_x"`
		}{},
		struct {
			X int64 `metric:"t_x,histogram"`
		}{},
		struct {
			X int64 `metric:"t_x,counter,min"`
		}{},
		struct {
			T []tabStats `label:"table=Missing"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: no panic", v)
				}
			}()
			Samples(v, func(string, string, float64) {})
		}()
	}
}
