// Package shard hash-partitions the primary-key space across N independent
// engine instances so writes scale past a single WAL writer.
//
// Each shard owns a complete engine stack — facade, WAL writer and its group
// commit, VIDmap, buffer pool and block devices — and shards share nothing
// on the hot path: a point op touches exactly one shard's locks and log. This is the classic recipe for scaling multi-version engines past
// their log (Larson et al., "High-Performance Concurrency Control Mechanisms
// for Main-Memory Databases"): eliminate the shared hot point instead of
// making it faster. Keeping per-partition version indexes also preserves the
// flash-friendly append locality SIAS is built around (Misra et al.,
// "Multi-version Indexing in Flash-based Key-Value Stores").
//
// Routing. Point ops go to hash(key) % N where hash is the SplitMix64
// finalizer — cheap, stateless and well mixed even for sequential keys, so
// monotonic inserts spread across all WAL writers instead of convoying on
// one. Range ops fan out to every shard and stream through a k-way ordered
// merge, so callers observe exactly the global key order a single engine
// would produce.
//
// Transactions. A Txn lazily opens one sub-transaction per shard on first
// touch. Each sub-transaction has its own snapshot in its own shard. Commit
// does the log I/O the outcome needs: shards that were only read log and
// flush nothing, and a transaction that wrote on one shard (the common case
// under hash routing) commits through that shard's group commit exactly as
// a single engine would — one WAL flush, no coordination
// records. Commits that wrote on several shards are ATOMIC via two-phase
// commit over the written shards' WALs: the lowest written shard is the
// coordinator, every other written shard forces a PREPARE record (phase 1,
// parallel fan-out), and the coordinator then forces a single DECIDE record
// (the commit point) with its own outcome record behind it — its heap
// records ride that flush, so the decision is its prepare. The other
// participants then append lightweight outcome records that nothing waits
// for: each rides its shard's next flush, or a lazy one shortly after, so n
// written shards cost n forced WAL flushes before the acknowledgement.
// Recovery resolves in-doubt transactions against the coordinator's
// decision log, presuming abort when no decision survived — so after a
// crash a cross-shard transaction's writes are visible in all shards or
// none. DESIGN.md "Cross-shard atomic commit" documents the protocol,
// record formats and recovery rules.
package shard

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// Shard pairs one engine facade with the served table inside it.
type Shard struct {
	Facade *engine.Facade
	Table  *engine.Table
}

// Router routes keys, transactions and scans across shards.
type Router struct {
	shards []Shard

	crossCommits atomic.Int64 // commits that wrote on >1 shard
	fanouts      atomic.Int64 // range ops that fanned out to all shards

	// 2PC outcome counters.
	twopcCommits      atomic.Int64 // cross-shard commits decided commit
	twopcAbortPrepare atomic.Int64 // aborted: a participant's prepare failed
	twopcInDoubt      atomic.Int64 // decision flush failed: outcome unknown until recovery

	// prepareHist observes the wall-clock duration of each parallel prepare
	// fan-out (nil = not collected). Set once via SetTwoPCMetrics before the
	// router is shared.
	prepareHist *obs.Histogram

	// tracer records commit-path spans for sampled transactions (Txn.SetTrace);
	// nil disables tracing. Set once via SetTracer before the router is shared.
	tracer *obs.Tracer
}

// SetTwoPCMetrics attaches the 2PC prepare-phase latency histogram. Must be
// called before the router is shared between goroutines.
func (r *Router) SetTwoPCMetrics(prepare *obs.Histogram) { r.prepareHist = prepare }

// SetTracer attaches the distributed tracer recording commit-path spans,
// propagating it to every shard's facade so group-commit stages trace too.
// Must be called before the router is shared between goroutines.
func (r *Router) SetTracer(t *obs.Tracer) {
	r.tracer = t
	for _, s := range r.shards {
		s.Facade.SetTracer(t)
	}
}

// NewRouter validates the shards (at least one, same schema everywhere) and
// returns a Router over them.
func NewRouter(shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: at least one shard is required")
	}
	ref := shards[0].Table
	for i, s := range shards {
		if s.Facade == nil || s.Table == nil {
			return nil, fmt.Errorf("shard %d: Facade and Table are required", i)
		}
		if !sameSchema(s.Table.Schema(), ref.Schema()) {
			return nil, fmt.Errorf("shard %d: schema differs from shard 0's", i)
		}
	}
	return &Router{shards: append([]Shard(nil), shards...)}, nil
}

func sameSchema(a, b *tuple.Schema) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i].Name != b.Cols[i].Name || a.Cols[i].Type != b.Cols[i].Type {
			return false
		}
	}
	return true
}

// N reports the shard count.
func (r *Router) N() int { return len(r.shards) }

// Shard exposes shard i (stats, tests, drain).
func (r *Router) Shard(i int) Shard { return r.shards[i] }

// Table exposes shard 0's table for schema introspection.
func (r *Router) Table() *engine.Table { return r.shards[0].Table }

// Of returns the shard index owning key among n shards: the SplitMix64
// finalizer mod n. Exported so load generators can compute placement
// client-side; changing this function re-homes every key, so it is part of
// the on-disk contract of a sharded deployment.
func Of(key int64, n int) int {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// ShardOf returns the shard index owning key.
func (r *Router) ShardOf(key int64) int { return Of(key, len(r.shards)) }

// GlobalID forms the globally unique id of a cross-shard transaction from
// the coordinating shard's index and the coordinator sub-transaction's local
// id. Local txn ids are per-shard allocations that all start at 1, so the
// raw local id collides across coordinators routinely; folding the
// coordinator into the top 16 bits makes gids unique fleet-wide, which is
// what lets recovery consult any decision map keyed by gid — including a
// participant's own — without first proving which shard coordinated. The
// low 48 bits outlast the allocator (recovery fast-forwards it past every
// logged id; it never wraps in practice).
func GlobalID(coordShard uint32, localID uint64) uint64 {
	return uint64(coordShard&0xFFFF)<<48 | localID&(1<<48-1)
}

// Checkpoint flushes every shard, one shard at a time, stopping at the
// first failure; the shards it is not flushing keep committing. A served
// engine runs no time-paced maintenance, so this call (the server makes it
// once, at drain) is the only checkpoint a shard takes.
func (r *Router) Checkpoint() error {
	for i, s := range r.shards {
		if err := s.Facade.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d checkpoint: %w", i, err)
		}
	}
	return nil
}

// Stats snapshots every shard's engine counters in shard order.
func (r *Router) Stats() []engine.Stats {
	out := make([]engine.Stats, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Facade.Stats()
	}
	return out
}

// RouterStats counts cross-shard coordination events.
type RouterStats struct {
	Shards       int   `metric:"sias_router_shards,gauge" help:"Configured shard count."`
	CrossCommits int64 `metric:"sias_router_cross_commits_total,counter" help:"Commits spanning more than one shard."` // 2PC runs
	RangeFanouts int64 `metric:"sias_router_range_fanouts_total,counter" help:"Range operations fanned out across all shards."`
	// 2PC outcomes: TwoPCCommits counts cross-shard transactions that
	// reached a durable commit decision, TwoPCAbortPrepare those aborted
	// because a participant's prepare failed, and TwoPCInDoubt those whose
	// commit-decision flush failed — the outcome is unknown (the record may
	// or may not be on the device) until restart recovery consults the log.
	// A failed decision flush is NOT an abort, so it is its own family
	// rather than an abort reason.
	TwoPCCommits      int64 `metric:"sias_2pc_commits_total,counter" help:"Cross-shard transactions that reached a durable commit decision."`
	TwoPCAbortPrepare int64 `metric:"sias_2pc_aborts_total,counter" help:"Cross-shard transactions aborted by the coordinator, by reason." label:"reason=prepare"`
	TwoPCInDoubt      int64 `metric:"sias_2pc_indoubt_total,counter" help:"Cross-shard transactions whose commit-decision flush failed; outcome unknown until restart recovery consults the log."`
}

// RouterStats snapshots the router-level counters.
func (r *Router) RouterStats() RouterStats {
	return RouterStats{
		Shards:            len(r.shards),
		CrossCommits:      r.crossCommits.Load(),
		RangeFanouts:      r.fanouts.Load(),
		TwoPCCommits:      r.twopcCommits.Load(),
		TwoPCAbortPrepare: r.twopcAbortPrepare.Load(),
		TwoPCInDoubt:      r.twopcInDoubt.Load(),
	}
}

// Aggregate sums per-shard engine stats into one engine-wide view. What
// "sum" means for each field is declared on the field (engine.Stats' tags).
func Aggregate(ss []engine.Stats) engine.Stats {
	var a engine.Stats
	for _, s := range ss {
		obs.Add(&a, s)
	}
	a.FillRatios()
	return a
}

// Txn is one client transaction: per-shard sub-transactions opened lazily on
// first touch. Txn is not safe for concurrent use (like *txn.Tx itself);
// the server executes each session's requests in order.
type Txn struct {
	r    *Router
	sub  []*txn.Tx // indexed by shard; nil until the shard is touched
	done bool

	// AS OF mode (Router.BeginAt): sub-transactions pin at the per-shard
	// token instead of taking fresh snapshots, and writes are rejected.
	asOf   bool
	tokens []uint64

	// tc is the distributed-trace context of the request driving this
	// transaction (SetTrace); the zero value means unsampled.
	tc obs.SpanContext

	// outcomes holds, per shard, the LSN just past the outcome record a
	// cross-shard commit appended there without forcing it (OutcomeLSN); nil
	// unless the commit ran 2PC.
	outcomes []wal.LSN
}

// OutcomeLSN reports the LSN just past the outcome record Commit appended on
// shard i and left for a later flush to carry, or 0 if it left none there.
// Shard i shows this transaction's writes to a reader that has applied its
// log through max(OutcomeLSN(i), the durable LSN at acknowledgement): a
// COMMIT reply's LSN vector carries that, so read-your-writes routing keeps
// a follower that has the PREPARE but not yet the outcome out of the way.
func (t *Txn) OutcomeLSN(i int) wal.LSN {
	if t.outcomes == nil {
		return 0
	}
	return t.outcomes[i]
}

// SetTrace attaches the request's trace context so Commit records router
// and engine stage spans under it. Call before Commit; the zero context
// (unsampled) is the default and records nothing.
func (t *Txn) SetTrace(tc obs.SpanContext) { t.tc = tc }

// Begin starts a transaction. No sub-transaction is opened yet: an empty
// commit touches no shard at all.
func (r *Router) Begin() *Txn {
	return &Txn{r: r, sub: make([]*txn.Tx, len(r.shards))}
}

// at returns the sub-transaction on shard i, opening it on first use.
func (t *Txn) at(i int) *txn.Tx {
	if t.sub[i] == nil {
		if t.asOf {
			t.sub[i] = t.r.shards[i].Facade.BeginAt(t.tokens[i])
		} else {
			t.sub[i] = t.r.shards[i].Facade.Begin()
		}
	}
	return t.sub[i]
}

// ErrFinished reports an op on a committed or aborted transaction.
var ErrFinished = errors.New("shard: transaction already finished")

// ErrInDoubt reports a cross-shard commit whose decision flush failed after
// the decide record was appended (engine.ErrInDoubt, which the wire carries
// as IN_DOUBT): a torn flush may still have made the decision durable, so
// the outcome is neither commit nor abort until restart recovery consults
// the log. The participants stay undecided (writes invisible, locks held);
// callers must not assume either outcome.
var ErrInDoubt = engine.ErrInDoubt

// writable is the one gate every write passes: a finished transaction and a
// pinned AS OF snapshot take no writes.
func (t *Txn) writable() error {
	if t.done {
		return ErrFinished
	}
	if t.asOf {
		return engine.ErrReadOnly
	}
	return nil
}

// tableOf says how an operation finds its table on a shard. Every operation
// of a Txn has one body, parameterised by this: the kv methods bind it to the
// shard's served table (Router.served — no catalog lookup, no lock), the row
// methods to a catalog name (Txn.named).
type tableOf func(shard int) (*engine.Table, error)

// served is the tableOf of the kv methods: Shard.Table.
func (r *Router) served(i int) (*engine.Table, error) { return r.shards[i].Table, nil }

// named is the tableOf of the row methods: the catalog table called name.
func (t *Txn) named(name string) tableOf {
	return func(i int) (*engine.Table, error) {
		tab := t.r.shards[i].Facade.DB().Table(name)
		if tab == nil {
			return nil, fmt.Errorf("%w: %s", engine.ErrNoTable, name)
		}
		return tab, nil
	}
}

// Get returns the visible row of key.
func (t *Txn) Get(key int64) (tuple.Row, error) { return t.get(t.r.served, key) }

// GetRow returns the visible row of key in the named table.
func (t *Txn) GetRow(table string, key int64) (tuple.Row, error) { return t.get(t.named(table), key) }

func (t *Txn) get(of tableOf, key int64) (tuple.Row, error) {
	if t.done {
		return nil, ErrFinished
	}
	i := t.r.ShardOf(key)
	tab, err := of(i)
	if err != nil {
		return nil, err
	}
	return t.r.shards[i].Facade.Get(tab, t.at(i), key)
}

// Insert stores row under its primary key's shard.
func (t *Txn) Insert(row tuple.Row) error { return t.insert(t.r.served, row) }

// InsertRow stores row in the named table under its primary key's shard.
func (t *Txn) InsertRow(table string, row tuple.Row) error { return t.insert(t.named(table), row) }

// insert routes by the row's primary key. Catalogs are identical across
// shards by construction, so shard 0's table reads the key.
func (t *Txn) insert(of tableOf, row tuple.Row) error {
	if err := t.writable(); err != nil {
		return err
	}
	meta, err := of(0)
	if err != nil {
		return err
	}
	i := t.r.ShardOf(rowKey(meta, row))
	tab, err := of(i)
	if err != nil {
		return err
	}
	return t.r.shards[i].Facade.Insert(tab, t.at(i), row)
}

// rowKey reads the primary key of a row of tab: 0 for a row too short to
// have one or a non-int64 key, both of which the engine's encoder refuses,
// and for a NULL key, which it stores as 0.
func rowKey(tab *engine.Table, row tuple.Row) int64 {
	if pk := tab.Schema().Col(tab.PKCol()); pk < len(row) {
		k, _ := row[pk].(int64)
		return k
	}
	return 0
}

// Update applies mutate to the visible row of key.
func (t *Txn) Update(key int64, mutate func(tuple.Row) (tuple.Row, error)) error {
	return t.update(t.r.served, key, mutate)
}

// UpdateRow replaces the visible row sharing row's primary key (full-row
// replace; the wire protocol has no partial update).
func (t *Txn) UpdateRow(table string, row tuple.Row) error {
	of := t.named(table)
	if err := t.writable(); err != nil {
		return err
	}
	meta, err := of(0)
	if err != nil {
		return err
	}
	return t.update(of, rowKey(meta, row), func(tuple.Row) (tuple.Row, error) { return row, nil })
}

func (t *Txn) update(of tableOf, key int64, mutate func(tuple.Row) (tuple.Row, error)) error {
	if err := t.writable(); err != nil {
		return err
	}
	i := t.r.ShardOf(key)
	tab, err := of(i)
	if err != nil {
		return err
	}
	return t.r.shards[i].Facade.Update(tab, t.at(i), key, mutate)
}

// Delete removes the row of key.
func (t *Txn) Delete(key int64) error { return t.delete(t.r.served, key) }

// DeleteRow removes the row of key in the named table.
func (t *Txn) DeleteRow(table string, key int64) error { return t.delete(t.named(table), key) }

func (t *Txn) delete(of tableOf, key int64) error {
	if err := t.writable(); err != nil {
		return err
	}
	i := t.r.ShardOf(key)
	tab, err := of(i)
	if err != nil {
		return err
	}
	return t.r.shards[i].Facade.Delete(tab, t.at(i), key)
}

// Commit ends the transaction with the log I/O its outcome needs and no
// more. The touched shards split into writers (the sub-transaction created a
// version, txn.Tx.Wrote) and readers. Readers vote read-only in the R* sense
// and drop out first: their sub-transactions finish in memory, with no log
// record and no flush. Then
//
//   - no writer: done — zero log bytes on every shard, however many were read;
//   - one writer: that shard's own WAL flush, shared with concurrent commits
//     (the writer's group commit), no coordination records (the 2PC-free
//     fast path), whatever else was read;
//   - several writers: two-phase commit over the writers only (commit2PC),
//     atomic across them even through a crash at any point of the protocol.
//
// For a sampled transaction (SetTrace) the whole router-side commit is the
// "route" span; 2PC phases and engine group-commit stages become its
// children, all finished before Commit returns.
func (t *Txn) Commit() error {
	if t.done {
		return ErrFinished
	}
	t.done = true
	var writers, readers []int
	for i, sub := range t.sub {
		switch {
		case sub == nil:
		case sub.Wrote():
			writers = append(writers, i)
		default:
			readers = append(readers, i)
		}
	}
	sp := t.r.tracer.StartSpan(t.tc, "route")
	sp.Annotate("shards", strconv.Itoa(len(writers)+len(readers)))
	sp.Annotate("writers", strconv.Itoa(len(writers)))
	defer sp.Finish()
	// Releasing a reader cannot fail short of a bug (its sub-transaction
	// already finished), so the writers' outcome is reported first.
	var readErr error
	for _, i := range readers {
		if err := t.r.shards[i].Facade.Commit(t.sub[i]); err != nil && readErr == nil {
			readErr = err
		}
	}
	var err error
	switch len(writers) {
	case 0:
		if len(readers) == 1 {
			sp.SetShard(readers[0])
		}
	case 1:
		i := writers[0]
		sp.SetShard(i)
		err = t.r.shards[i].Facade.CommitTraced(t.sub[i], sp.Context())
	default:
		t.r.crossCommits.Add(1)
		err = t.commit2PC(writers, sp)
	}
	if err != nil {
		return err
	}
	return readErr
}

// parallel runs leg(0) … leg(n-1) concurrently and returns when all have:
// leg 0 on the calling goroutine, the rest on their own. A round of one leg
// — the prepare round of a two-shard commit — is a plain call.
func parallel(n int, leg func(j int)) {
	if n == 1 {
		leg(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for j := 1; j < n; j++ {
		go func(j int) {
			defer wg.Done()
			leg(j)
		}(j)
	}
	leg(0)
	wg.Wait()
}

// commit2PC runs two-phase commit over the written shards. The lowest of
// them is the coordinator; the global transaction id folds the coordinator's
// shard index over its sub-transaction id (GlobalID), so gids never collide
// across coordinators even though every shard's local id allocator starts
// at 1.
//
// Phase 1 forces a PREPARE record on every participant but the coordinator,
// in parallel (with two written shards, one call on this goroutine): the
// sub-transaction's heap records precede it in the same WAL, so one flush
// covers both, and the flushes across shards overlap. Phase 2 forces one
// DECIDE record in the coordinator's WAL — the commit point — with the
// coordinator's own outcome record behind it (engine.DB.Decide); the
// coordinator's heap records precede both, so that one flush makes its half
// durable and decided at once, and a PREPARE of its own would protect
// nothing. The other participants' outcome records are then appended and
// their CLOGs flipped, but nothing is forced: crash recovery re-derives a
// lost outcome from the durable decision (a missing decision means abort —
// presumed abort), and a follower, which flips visibility only on a shipped
// outcome record, gets it from the shard's next flush or the lazy flush
// engine.Facade.FinishPrepared arms. n written shards cost (n - 1) + 1 = n
// forced flushes before Commit returns; the n - 1 outcome records ride later
// ones, and Txn.OutcomeLSN keeps where they end for read-your-writes routing.
func (t *Txn) commit2PC(writers []int, parent *obs.Span) error {
	r := t.r
	coord, others := writers[0], writers[1:]
	gid := GlobalID(uint32(coord), uint64(t.sub[coord].ID))
	parent.SetShard(coord) // the coordinator anchors the route span

	var t0 time.Time
	if r.prepareHist != nil {
		t0 = time.Now()
	}
	errs := make([]error, len(others))
	parallel(len(others), func(j int) {
		i := others[j]
		psp := r.tracer.StartSpan(parent.Context(), "prepare")
		psp.SetShard(i)
		errs[j] = r.shards[i].Facade.Prepare(t.sub[i], gid, uint32(coord))
		if errs[j] != nil {
			psp.Annotate("error", errs[j].Error())
		} else {
			// Prepare forces the participant's WAL through the PREPARE
			// record: this span's window includes that fsync.
			psp.Annotate("wal_fsync", "forced")
		}
		psp.Finish()
	})
	if r.prepareHist != nil {
		r.prepareHist.ObserveSince(t0)
	}
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	if first != nil {
		// Abort. No decision is logged: a missing decision already means
		// abort (presumed abort), so the coordinator rolls back like any
		// transaction, the prepared participants log their outcome record
		// and the one whose prepare failed rolls back through the same call.
		parent.Annotate("result", "abort-prepare")
		r.shards[coord].Facade.Abort(t.sub[coord])
		for _, i := range others {
			r.shards[i].Facade.FinishPrepared(t.sub[i], false)
		}
		r.twopcAbortPrepare.Add(1)
		return first
	}
	crashpoint(crashAfterPrepare, nil)

	sampled := t.tc.Sampled && r.tracer != nil
	if sampled {
		// Link each participant's WAL records to the originating trace so a
		// follower's apply span can carry the same trace id. Advisory and
		// unflushed — the coordinator's rides the decide flush, the others'
		// whichever flush carries their outcome record.
		r.shards[coord].Facade.NoteTrace(t.sub[coord], t.tc.TraceID)
	}
	// The commit point: the decision is durable in the coordinator's log,
	// and with it the coordinator's own half — its CLOG flips here.
	dsp := r.tracer.StartSpan(parent.Context(), "decide")
	dsp.SetShard(coord)
	if err := r.shards[coord].Facade.Decide(t.sub[coord], gid); err != nil {
		dsp.Annotate("result", "in-doubt")
		dsp.Finish()
		// The decide record was appended before the flush failed, so it may
		// or may not have reached the device — a torn flush can leave the
		// decision durable even as the flush reports failure. Presumed abort
		// only licenses aborting while NO decision record exists; deciding
		// abort here could disagree with what recovery reads back and tear
		// the transaction. Leave every participant undecided (writes
		// invisible, locks held) and surface the ambiguity (err wraps
		// ErrInDoubt): restart recovery resolves the outcome from whatever
		// the log actually holds.
		r.twopcInDoubt.Add(1)
		return fmt.Errorf("commit-decision flush on coordinator shard %d: %w", coord, err)
	}
	// The Decide flush above forced the coordinator's WAL through the
	// decision record — the transaction's commit point.
	dsp.Annotate("wal_fsync", "commit-point")
	dsp.Finish()
	crashpoint(crashAfterDecide, nil)

	// Outcome records of the other participants: the CLOG flips here, which
	// is what makes the writes visible (and releases the write locks) on
	// each of their shards. The records are not forced (wal_fsync=lazy): the
	// transaction is committed from here on whatever their flush does, so no
	// flush error may reach the caller, who would retry a committed write.
	osp := r.tracer.StartSpan(parent.Context(), "outcome")
	osp.SetShard(coord)
	osp.Annotate("participants", strconv.Itoa(len(others)))
	osp.Annotate("wal_fsync", "lazy")
	t.outcomes = make([]wal.LSN, len(t.sub))
	for n, i := range others {
		f := r.shards[i].Facade
		if sampled {
			f.NoteTrace(t.sub[i], t.tc.TraceID)
		}
		lsn, err := f.FinishPrepared(t.sub[i], true)
		t.outcomes[i] = lsn
		if err != nil && first == nil {
			first = err
		}
		if n == 0 {
			// Crash-matrix hook: the first non-coordinator outcome record
			// must be durable for the mid-outcome scenario to actually
			// exercise a partially-outcome-logged log set, so force it
			// before dying.
			crashpoint(crashMidOutcome, f.FlushWAL)
		}
	}
	osp.Finish()
	r.twopcCommits.Add(1)
	return first
}

// Abort rolls every touched shard back.
func (t *Txn) Abort() error {
	if t.done {
		return ErrFinished
	}
	t.done = true
	var first error
	for i, sub := range t.sub {
		if sub == nil {
			continue
		}
		if err := t.r.shards[i].Facade.Abort(sub); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Range visits visible rows with lo <= primary key <= hi in global key
// order, stopping when fn returns false.
func (t *Txn) Range(lo, hi int64, fn func(tuple.Row) bool) error {
	return t.scan(t.r.served, lo, hi, fn)
}

// ScanTable is Range over the named table.
func (t *Txn) ScanTable(table string, lo, hi int64, fn func(tuple.Row) bool) error {
	return t.scan(t.named(table), lo, hi, fn)
}

// scan: with one shard a plain engine range; with N, fanMerge, so rows
// surface in exactly the order a single engine would produce and early
// termination (LIMIT) cancels the producers instead of draining them.
func (t *Txn) scan(of tableOf, lo, hi int64, fn func(tuple.Row) bool) error {
	if t.done {
		return ErrFinished
	}
	meta, err := of(0)
	if err != nil {
		return err
	}
	if t.r.N() == 1 {
		return t.r.shards[0].Facade.RangeByKey(meta, t.at(0), lo, hi, fn)
	}
	pk := meta.Schema().Col(meta.PKCol())
	return t.fanMerge(of,
		func(i int, tab *engine.Table, sub *txn.Tx, emit func(int64, int64, tuple.Row) bool) error {
			return t.r.shards[i].Facade.RangeByKey(tab, sub, lo, hi, func(row tuple.Row) bool {
				k, _ := row[pk].(int64)
				return emit(k, 0, row)
			})
		},
		func(_ int64, row tuple.Row) bool { return fn(row) })
}
