package shard

import (
	"container/heap"
	"fmt"
	"sync"

	"sias/internal/engine"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// Catalog DDL fans out to every shard: each shard's engine logs its own
// RecDDL in its own WAL, so per-shard recovery and per-shard replication
// streams stay self-contained. DDL is applied serially in shard order and is
// NOT atomic across shards; CreateTable/CreateIndex undo completed shards
// best-effort on failure so the catalogs stay aligned, and a failed drop
// reports the first error (a retry is idempotent per shard: already-dropped
// shards answer ErrNoTable/ErrNoIndex, which the retry treats as done).

// CreateTable creates the table on every shard through the logged DDL path.
func (r *Router) CreateTable(name string, schema *tuple.Schema, pkCol string) error {
	for i, s := range r.shards {
		if _, err := s.Facade.CreateTable(name, schema, pkCol); err != nil {
			for j := i - 1; j >= 0; j-- {
				r.shards[j].Facade.DropTable(name)
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// DropTable drops the table on every shard.
func (r *Router) DropTable(name string) error {
	var first error
	for i, s := range r.shards {
		if err := s.Facade.DropTable(name); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// CreateIndex creates the named column index on every shard.
func (r *Router) CreateIndex(table, index, column string) error {
	for i, s := range r.shards {
		if err := s.Facade.CreateIndex(table, index, column); err != nil {
			for j := i - 1; j >= 0; j-- {
				r.shards[j].Facade.DropIndex(table, index)
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// DropIndex drops the named index on every shard.
func (r *Router) DropIndex(table, index string) error {
	var first error
	for i, s := range r.shards {
		if err := s.Facade.DropIndex(table, index); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// TableMeta resolves the named table on shard 0 for schema introspection
// (catalogs are identical across shards by construction).
func (r *Router) TableMeta(name string) (*engine.Table, error) {
	tab := r.shards[0].Facade.DB().Table(name)
	if tab == nil {
		return nil, fmt.Errorf("%w: %s", engine.ErrNoTable, name)
	}
	return tab, nil
}

// SnapshotTokens captures one stable AS OF token per shard. Each shard has
// its own transaction-id space, so a point-in-time snapshot of the sharded
// store is a vector, not a scalar; the vector is causally consistent per
// shard (everything below each token is decided) but makes no cross-shard
// ordering claim — exactly the atomicity scope multi-shard commits have.
func (r *Router) SnapshotTokens() []uint64 {
	out := make([]uint64, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Facade.SnapshotToken()
	}
	return out
}

// BeginAt starts a read-only transaction pinned at a token vector from
// SnapshotTokens. Sub-transactions still open lazily; writes are rejected
// with engine.ErrReadOnly.
func (r *Router) BeginAt(tokens []uint64) (*Txn, error) {
	if len(tokens) != len(r.shards) {
		return nil, fmt.Errorf("shard: token vector has %d entries, want %d", len(tokens), len(r.shards))
	}
	return &Txn{
		r:      r,
		sub:    make([]*txn.Tx, len(r.shards)),
		asOf:   true,
		tokens: append([]uint64(nil), tokens...),
	}, nil
}

// AsOf reports whether the transaction is a pinned AS OF snapshot.
func (t *Txn) AsOf() bool { return t.asOf }

// IndexRange visits visible rows of the named table with lo <= indexed value
// <= hi in global index-key order (ties across shards break by shard id),
// k-way merging the shards' already-sorted index scans. A point lookup is
// the range lo == hi.
func (t *Txn) IndexRange(table, index string, lo, hi int64, fn func(indexKey int64, row tuple.Row) bool) error {
	// Resolve the index position up front so an unknown index reports
	// cleanly instead of from inside a producer.
	of := t.named(table)
	if !t.done {
		tab, err := of(0)
		if err != nil {
			return err
		}
		if _, err := tab.SecondaryIndex(index); err != nil {
			return err
		}
	}
	return t.fanMerge(of,
		func(i int, tab *engine.Table, sub *txn.Tx, emit func(int64, int64, tuple.Row) bool) error {
			idx, err := tab.SecondaryIndex(index)
			if err != nil {
				return err
			}
			return t.r.shards[i].Facade.RangeBySecondary(tab, sub, idx, lo, hi, func(ikey int64, row tuple.Row) bool {
				return emit(ikey, ikey, row)
			})
		},
		fn)
}

// mergeEnt is one heap entry of the k-way merge.
type mergeEnt struct {
	sortKey int64
	ikey    int64
	row     tuple.Row
	src     int
}

type entHeap []mergeEnt

func (h entHeap) Len() int { return len(h) }
func (h entHeap) Less(i, j int) bool {
	if h[i].sortKey != h[j].sortKey {
		return h[i].sortKey < h[j].sortKey
	}
	return h[i].src < h[j].src
}
func (h entHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entHeap) Push(x any)   { *h = append(*h, x.(mergeEnt)) }
func (h *entHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeBatch is how many rows a producer hands the merge per channel
// operation: a send per row would cost a goroutine handoff per row, and a
// short range (a point lookup) would pay more for the merge than for the
// reads.
const mergeBatch = 64

// fanMerge is the router's one k-way merge: one sorted producer per shard
// streams batches of rows into a channel and a heap merges them in
// (sortKey, shard) order — key ranges (scan) and index scans alike. of names
// the table each shard scans. Early exit from fn tears the producers down
// through the done channel; a producer runs at most two batches ahead.
func (t *Txn) fanMerge(
	of tableOf,
	run func(i int, tab *engine.Table, sub *txn.Tx, emit func(sortKey, ikey int64, row tuple.Row) bool) error,
	fn func(ikey int64, row tuple.Row) bool,
) error {
	if t.done {
		return ErrFinished
	}
	n := t.r.N()
	if n == 1 {
		tab, err := of(0)
		if err != nil {
			return err
		}
		return run(0, tab, t.at(0), func(_, ikey int64, row tuple.Row) bool {
			return fn(ikey, row)
		})
	}
	t.r.fanouts.Add(1)

	// Defer order matters: close(done) must run before wg.Wait so blocked
	// producers unblock before we wait for them.
	done := make(chan struct{})
	chans := make([]chan []mergeEnt, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	for i := 0; i < n; i++ {
		tab, err := of(i)
		if err != nil {
			// Producers already started stream into buffered channels and
			// stop at the done close in the deferred teardown.
			return err
		}
		// Sub-transactions open here, serially: facade Begin is cheap, and
		// it keeps Txn's lazy-open slice single-goroutine.
		sub := t.at(i)
		ch := make(chan []mergeEnt, 1)
		chans[i] = ch
		wg.Add(1)
		go func(i int, tab *engine.Table, sub *txn.Tx, ch chan []mergeEnt) {
			defer wg.Done()
			defer close(ch)
			// The first batch grows from empty, so a short range (a point
			// lookup) allocates for its rows only; once one batch fills, the
			// range is long and the next ones start at full size.
			var batch []mergeEnt
			errs[i] = run(i, tab, sub, func(sortKey, ikey int64, row tuple.Row) bool {
				batch = append(batch, mergeEnt{sortKey: sortKey, ikey: ikey, row: row, src: i})
				if len(batch) < mergeBatch {
					return true
				}
				select {
				case ch <- batch:
					batch = make([]mergeEnt, 0, mergeBatch)
					return true
				case <-done:
					return false
				}
			})
			if len(batch) > 0 {
				select {
				case ch <- batch:
				case <-done:
				}
			}
		}(i, tab, sub, ch)
	}
	// pending[i] is the unmerged rest of shard i's current batch; batches
	// are never empty, so a closed channel is the only end of a source.
	pending := make([][]mergeEnt, n)
	next := func(i int) (mergeEnt, bool) {
		if len(pending[i]) == 0 {
			b, ok := <-chans[i]
			if !ok {
				return mergeEnt{}, false
			}
			pending[i] = b
		}
		e := pending[i][0]
		pending[i] = pending[i][1:]
		return e, true
	}
	h := make(entHeap, 0, n)
	for i := range chans {
		if e, ok := next(i); ok {
			h = append(h, e)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		top := h[0]
		if !fn(top.ikey, top.row) {
			return nil
		}
		if e, ok := next(top.src); ok {
			h[0] = e
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d scan: %w", i, err)
		}
	}
	return nil
}
