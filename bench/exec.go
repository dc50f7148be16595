package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"sias/internal/client"
	"sias/internal/engine"
	"sias/internal/shard"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// kvTx is the transaction surface the closed loop drives. *client.Tx has
// exactly this shape; the shard and engine rungs of the ladder adapt the
// layers below the server to it so the same generated stream runs on each.
type kvTx interface {
	Get(key int64) ([]byte, error)
	Update(key int64, val []byte) error
	Scan(lo, hi int64, limit int) ([]client.KV, error)
	Commit() error
	Abort() error
}

// beginner opens transactions on one rung of the ladder for one client.
type beginner func() (kvTx, error)

func clientRung(c *client.Client) beginner {
	return func() (kvTx, error) { return c.Begin() }
}

// shardTx drives shard.Txn directly, doing what the server's session does
// between decoding a request and encoding its reply.
type shardTx struct{ t *shard.Txn }

func shardRung(r *shard.Router) beginner {
	return func() (kvTx, error) { return shardTx{r.Begin()}, nil }
}

func (s shardTx) Get(key int64) ([]byte, error) {
	row, err := s.t.Get(key)
	if err != nil {
		return nil, err
	}
	return row[1].([]byte), nil
}

func setValue(val []byte) func(tuple.Row) (tuple.Row, error) {
	return func(row tuple.Row) (tuple.Row, error) {
		out := append(tuple.Row(nil), row...)
		out[1] = append([]byte(nil), val...)
		return out, nil
	}
}

func (s shardTx) Update(key int64, val []byte) error { return s.t.Update(key, setValue(val)) }

func (s shardTx) Scan(lo, hi int64, limit int) ([]client.KV, error) {
	var out []client.KV
	err := s.t.Range(lo, hi, func(row tuple.Row) bool {
		out = append(out, client.KV{Key: row[0].(int64), Val: row[1].([]byte)})
		return limit == 0 || len(out) < limit
	})
	return out, err
}

func (s shardTx) Commit() error { return s.t.Commit() }
func (s shardTx) Abort() error  { return s.t.Abort() }

// engineTx drives each shard's engine.Facade directly: one local transaction
// per touched shard, committed one after the other with no coordination, so
// its distance to the shard rung is what routing and 2PC cost.
type engineTx struct {
	shards []shard.Shard
	sub    []*txn.Tx
}

func engineRung(r *shard.Router) beginner {
	shards := make([]shard.Shard, r.N())
	for i := range shards {
		shards[i] = r.Shard(i)
	}
	return func() (kvTx, error) {
		return &engineTx{shards: shards, sub: make([]*txn.Tx, len(shards))}, nil
	}
}

func (e *engineTx) at(i int) (*engine.Facade, *engine.Table, *txn.Tx) {
	if e.sub[i] == nil {
		e.sub[i] = e.shards[i].Facade.Begin()
	}
	return e.shards[i].Facade, e.shards[i].Table, e.sub[i]
}

func (e *engineTx) Get(key int64) ([]byte, error) {
	f, tab, tx := e.at(shard.Of(key, len(e.shards)))
	row, err := f.Get(tab, tx, key)
	if err != nil {
		return nil, err
	}
	return row[1].([]byte), nil
}

func (e *engineTx) Update(key int64, val []byte) error {
	f, tab, tx := e.at(shard.Of(key, len(e.shards)))
	return f.Update(tab, tx, key, setValue(val))
}

func (e *engineTx) Scan(lo, hi int64, limit int) ([]client.KV, error) {
	var out []client.KV
	for i := range e.shards {
		f, tab, tx := e.at(i)
		err := f.RangeByKey(tab, tx, lo, hi, func(row tuple.Row) bool {
			out = append(out, client.KV{Key: row[0].(int64), Val: row[1].([]byte)})
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	if len(e.shards) > 1 {
		sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

func (e *engineTx) finish(fn func(*engine.Facade, *txn.Tx) error) error {
	var first error
	for i, tx := range e.sub {
		if tx == nil {
			continue
		}
		if err := fn(e.shards[i].Facade, tx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *engineTx) Commit() error { return e.finish((*engine.Facade).Commit) }
func (e *engineTx) Abort() error  { return e.finish((*engine.Facade).Abort) }

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is untouched). The spans of one transaction share
// Txn; the per-transaction root span is their Parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Txn    int64  `json:"txn"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects one client goroutine's spans in memory. A nil *spanLog
// records nothing, which is the untraced run.
type spanLog struct {
	layer string
	base  int64 // id space of this goroutine, so ids never collide
	epoch time.Time
	spans []span
}

func (l *spanLog) add(parent, txn int64, op string, start, end time.Time) int64 {
	id := l.base + int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Txn: txn, Layer: l.layer, Op: op,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// durations returns the span durations of op in nanoseconds.
func durations(logs []*spanLog, op string) []int64 {
	var out []int64
	for _, l := range logs {
		for i := range l.spans {
			if l.spans[i].Op == op {
				out = append(out, l.spans[i].End-l.spans[i].Start)
			}
		}
	}
	return out
}

func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
