package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
	"sias/internal/wal"
)

// The incremental-apply differential test: one primary runs a randomized
// workload (inserts, updates, deletes, aborts, GC/vacuum churn, a mid-stream
// CREATE INDEX, transactions left undecided across comparison points) while a
// follower mirrors its log and replays it record by record, refreshing
// incrementally. At every cut point a second follower is restarted from a
// copy of the first one's devices — Recover over the mirrored log, the heap
// rebuild, the real alternative path — and the two must serve identical
// reads; at the end both must also agree with the primary.

// logRec is one record of the primary's log with the stream offset it starts
// at (a mirror has to reproduce the offsets: checkpoint records name them).
type logRec struct {
	lsn wal.LSN
	rec wal.Record
}

// scanLog reads every record the primary has flushed.
func scanLog(t *testing.T, walDev device.BlockDevice) []logRec {
	t.Helper()
	var recs []logRec
	if _, err := wal.Scan(walDev, func(lsn wal.LSN, rec wal.Record) error {
		rec.Data = bytes.Clone(rec.Data) // valid only until fn returns
		recs = append(recs, logRec{lsn, rec})
		return nil
	}); err != nil {
		t.Fatalf("wal scan: %v", err)
	}
	return recs
}

type applyReplica struct {
	db           *DB
	tab          *Table
	kind         Kind
	data, walDev *device.Mem
	at           simclock.Time
	pos          int // records consumed from the primary log
}

// Devices small enough to copy at every cut.
const (
	applyDataPages = 1 << 11
	applyWALPages  = 1 << 10
)

func newApplyReplica(t *testing.T, kind Kind) *applyReplica {
	t.Helper()
	return openApplyReplica(t, kind, device.NewMem(page.Size, applyDataPages), device.NewMem(page.Size, applyWALPages), false)
}

// openApplyReplica assembles a follower engine the way cmd/siasserver does:
// replica mode on before the bootstrap table exists, and on a restart the
// mirrored log replayed and resumed at its exact end.
func openApplyReplica(t *testing.T, kind Kind, data, walDev *device.Mem, restart bool) *applyReplica {
	t.Helper()
	opts := DefaultOptions(data, walDev)
	opts.Kind = kind
	opts.GCRetention = 4
	opts.Recover = restart
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.SetReplica(true) // before CreateTable: bootstrap extents must be scratch
	tab, _, err := db.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if restart {
		if _, err := db.Recover(0); err != nil {
			t.Fatalf("follower restart: %v", err)
		}
		db.SetReplica(true) // re-seed the read horizon past the replayed ids
	}
	return &applyReplica{db: db, tab: tab, kind: kind, data: data, walDev: walDev}
}

// catchUp mirrors every not-yet-consumed primary record into the local log
// and applies it, then forces the mirror, as repl.Follower does per batch.
func (rep *applyReplica) catchUp(t *testing.T, recs []logRec) {
	t.Helper()
	w := rep.db.WAL()
	for ; rep.pos < len(recs); rep.pos++ {
		r := &recs[rep.pos]
		if got := w.NextLSN(); got != r.lsn {
			t.Fatalf("mirror at LSN %d, primary record %d starts at %d", got, rep.pos, r.lsn)
		}
		w.Append(&r.rec)
		var err error
		rep.at, err = rep.db.ApplyRecord(rep.at, &r.rec)
		if err != nil {
			t.Fatalf("apply record %d (%v): %v", rep.pos, r.rec.Type, err)
		}
	}
	var err error
	if rep.at, err = w.Flush(rep.at, w.NextLSN()); err != nil {
		t.Fatalf("flush mirror: %v", err)
	}
}

// refresh publishes what was applied to new read snapshots.
func (rep *applyReplica) refresh(t *testing.T) {
	t.Helper()
	var err error
	if rep.at, err = rep.db.RefreshReplica(rep.at); err != nil {
		t.Fatalf("refresh: %v", err)
	}
}

// restart crashes a copy of the follower: what its devices hold right now —
// the forced mirror, and whichever data pages a replayed checkpoint or an
// eviction wrote — is reopened and recovered; everything volatile is rebuilt.
// The original keeps running.
func (rep *applyReplica) restart(t *testing.T) *applyReplica {
	t.Helper()
	re := openApplyReplica(t, rep.kind, cloneMem(t, rep.data), cloneMem(t, rep.walDev), true)
	re.pos = rep.pos
	return re
}

func cloneMem(t testing.TB, src *device.Mem) *device.Mem {
	t.Helper()
	dst := device.NewMem(src.PageSize(), src.NumPages())
	buf, zero := make([]byte, src.PageSize()), make([]byte, src.PageSize())
	for p := int64(0); p < src.NumPages(); p++ {
		if _, err := src.ReadPage(0, p, buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf, zero) {
			continue
		}
		if _, err := dst.WritePage(0, p, buf); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// readState is everything a follower serves, flattened for comparison.
type readState struct {
	scan  map[int64]string // pk -> row (table scan)
	gets  map[int64]string // pk -> row or "missing" (point reads)
	pk    []string         // RangeByKey over the full key space, in order
	sec   []string         // RangeBySecondary over the full value space, in order
	extra []string         // secondary point lookups over observed values
}

// snapshotReads runs every read path at the follower's published horizon.
func snapshotReads(t *testing.T, db *DB, tab *Table, maxKey int64, secIdx int) readState {
	t.Helper()
	tx := db.Begin()
	at := simclock.Time(0)
	st := readState{scan: map[int64]string{}, gets: map[int64]string{}}
	var err error
	at, err = tab.Scan(tx, at, rowVisit(func(row tuple.Row) bool {
		st.scan[row[0].(int64)] = fmt.Sprintf("%v", row)
		return true
	}))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	for k := int64(1); k <= maxKey; k++ {
		row, a, gerr := getRow(tab, tx, at, k)
		at = a
		switch {
		case gerr == nil:
			st.gets[k] = fmt.Sprintf("%v", row)
		case errors.Is(gerr, ErrNotFound):
			st.gets[k] = "missing"
		default:
			t.Fatalf("get %d: %v", k, gerr)
		}
	}
	at, err = tab.RangeByKey(tx, at, math.MinInt64, math.MaxInt64, rowVisit(func(row tuple.Row) bool {
		st.pk = append(st.pk, fmt.Sprintf("%v", row))
		return true
	}))
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if secIdx >= 0 {
		at, err = tab.RangeBySecondary(tx, at, secIdx, math.MinInt64, math.MaxInt64, rowVisitKey(func(k int64, row tuple.Row) bool {
			st.sec = append(st.sec, fmt.Sprintf("%d=%v", k, row))
			return true
		}))
		if err != nil {
			t.Fatalf("range secondary: %v", err)
		}
		// Balance values are drawn from [0, 50); probe them all point-wise.
		for k := int64(0); k < 50; k++ {
			rows, a, lerr := pointRows(tab, tx, at, secIdx, k)
			at = a
			if lerr != nil {
				t.Fatalf("lookup secondary %d: %v", k, lerr)
			}
			st.extra = append(st.extra, fmt.Sprintf("%d:%d", k, len(rows)))
		}
	}
	if _, err := db.Commit(tx, at); err != nil {
		t.Fatalf("finish read txn: %v", err)
	}
	return st
}

func diffStates(t *testing.T, label string, a, b readState) {
	t.Helper()
	if len(a.scan) != len(b.scan) {
		t.Errorf("%s: scan rows %d vs %d", label, len(a.scan), len(b.scan))
	}
	for k, v := range a.scan {
		if b.scan[k] != v {
			t.Errorf("%s: scan key %d: %q vs %q", label, k, v, b.scan[k])
		}
	}
	for k, v := range a.gets {
		if b.gets[k] != v {
			t.Errorf("%s: get key %d: %q vs %q", label, k, v, b.gets[k])
		}
	}
	if fmt.Sprint(a.pk) != fmt.Sprint(b.pk) {
		t.Errorf("%s: pk range diverged (%d vs %d rows)", label, len(a.pk), len(b.pk))
	}
	if fmt.Sprint(a.sec) != fmt.Sprint(b.sec) {
		t.Errorf("%s: secondary range diverged (%d vs %d entries)", label, len(a.sec), len(b.sec))
	}
	if fmt.Sprint(a.extra) != fmt.Sprint(b.extra) {
		t.Errorf("%s: secondary lookups diverged", label)
	}
}

func TestReplicaIncrementalApplyDifferential(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runReplicaApplyDifferential(t, k, seed)
				})
			}
		})
	}
}

func runReplicaApplyDifferential(t *testing.T, kind Kind, seed int64) {
	if servedOnly(t, kind) {
		return
	}
	data := device.NewMem(page.Size, applyDataPages)
	walDev := device.NewMem(page.Size, applyWALPages)
	opts := DefaultOptions(data, walDev)
	opts.Kind = kind
	opts.GCRetention = 4
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ptab, at, err := p.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}

	incr := newApplyReplica(t, kind)

	rng := rand.New(rand.NewSource(seed))
	live := []int64{}
	nextKey := int64(1)
	secIdx := -1

	cut := func(label string) {
		t.Helper()
		// Flush the primary log so every record so far is scannable.
		var cerr error
		at, cerr = p.Checkpoint(at)
		if cerr != nil {
			t.Fatalf("%s: checkpoint: %v", label, cerr)
		}
		incr.catchUp(t, scanLog(t, walDev))
		incr.refresh(t)
		re := incr.restart(t)
		if ix, rx := incr.db.replicaXMax.Load(), re.db.replicaXMax.Load(); ix != rx {
			t.Fatalf("%s: horizons diverged: %d vs %d", label, ix, rx)
		}
		a := snapshotReads(t, incr.db, incr.tab, nextKey, secIdx)
		b := snapshotReads(t, re.db, re.tab, nextKey, secIdx)
		diffStates(t, label+" incr-vs-restarted", a, b)
	}

	// locked holds keys written by the deliberately-undecided cross-cut
	// transaction; concurrent writers must avoid them or they would block
	// on its row locks.
	locked := map[int64]bool{}

	// pickLive chooses a committed key this transaction has not deleted and
	// no open transaction has locked.
	pickLive := func(tx *txnHandle) (int, bool) {
		for attempt := 0; attempt < 8 && len(live) > 0; attempt++ {
			i := rng.Intn(len(live))
			if k := live[i]; !tx.gone[k] && !locked[k] {
				return i, true
			}
		}
		return 0, false
	}

	writeOne := func(tx *txnHandle) {
		n := rng.Intn(10)
		i, ok := pickLive(tx)
		switch {
		case n < 4 || !ok: // insert
			k := nextKey
			nextKey++
			at, err = ptab.Insert(tx.tx, at, tuple.Row{k, fmt.Sprintf("u%d", k), rng.Int63n(50)})
			if err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			tx.inserted = append(tx.inserted, k)
		case n < 8: // update
			k := live[i]
			tx.touched = append(tx.touched, k)
			at, err = ptab.Update(tx.tx, at, k, rowUpdate(func(r tuple.Row) (tuple.Row, error) {
				r[2] = rng.Int63n(50)
				return r, nil
			}))
			if err != nil {
				t.Fatalf("update %d: %v", k, err)
			}
		default: // delete
			k := live[i]
			tx.touched = append(tx.touched, k)
			at, err = ptab.Delete(tx.tx, at, k)
			if err != nil {
				t.Fatalf("delete %d: %v", k, err)
			}
			if tx.gone == nil {
				tx.gone = map[int64]bool{}
			}
			tx.gone[k] = true
		}
	}

	finish := func(tx *txnHandle, commit bool) {
		if commit {
			if at, err = p.Commit(tx.tx, at); err != nil {
				t.Fatalf("commit: %v", err)
			}
			kept := live[:0]
			for _, k := range live {
				if !tx.gone[k] {
					kept = append(kept, k)
				}
			}
			live = append(kept, tx.inserted...)
		} else {
			if at, err = p.Abort(tx.tx, at); err != nil {
				t.Fatalf("abort: %v", err)
			}
		}
	}

	var open *txnHandle // the cross-cut undecided transaction
	for i := 1; i <= 400; i++ {
		tx := &txnHandle{tx: p.Begin()}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			writeOne(tx)
		}
		finish(tx, rng.Intn(10) != 0)

		if i == 60 {
			if at, err = p.CreateIndexLogged(at, "accounts", "by_balance", "balance"); err != nil {
				t.Fatal(err)
			}
			secIdx = 0
		}
		if i%50 == 0 {
			if at, err = p.RunMaintenance(at); err != nil {
				t.Fatalf("maintenance: %v", err)
			}
		}
		switch i {
		case 150, 310:
			// Open a transaction that will still be undecided at the next
			// cut: its heap records ship, its decision does not.
			open = &txnHandle{tx: p.Begin()}
			writeOne(open)
			writeOne(open)
			for _, k := range open.touched {
				locked[k] = true
			}
		case 160:
			cut("cut-160-inflight")
			finish(open, false) // abort: incremental apply must unwind
			open, locked = nil, map[int64]bool{}
		case 320:
			cut("cut-320-inflight")
			finish(open, true) // commit: the other decision path
			open, locked = nil, map[int64]bool{}
		case 80, 240:
			cut(fmt.Sprintf("cut-%d", i))
		}
	}

	cut("cut-final")

	// With every transaction decided and the log fully shipped, the follower
	// must also agree with the primary itself — the mid-stream index and the
	// rows that predate it included.
	ppri := snapshotReads(t, p, ptab, nextKey, secIdx)
	arep := snapshotReads(t, incr.db, incr.tab, nextKey, secIdx)
	diffStates(t, "final primary-vs-incr", ppri, arep)
}

// txnHandle tracks a primary transaction's tentative effect on the live-key
// set so commits and aborts update it correctly.
type txnHandle struct {
	tx       *txn.Tx
	inserted []int64
	touched  []int64        // committed keys this txn updated or deleted
	gone     map[int64]bool // keys this txn deleted (skip as later targets)
}

// replayPrimary is a small primary with twelve committed rows and a secondary
// index on balance, the starting point of the restart and promotion tests.
func replayPrimary(t *testing.T, kind Kind) (*DB, *Table, *device.Mem, simclock.Time) {
	t.Helper()
	walDev := device.NewMem(page.Size, applyWALPages)
	opts := DefaultOptions(device.NewMem(page.Size, applyDataPages), walDev)
	opts.Kind = kind
	opts.GCRetention = 4
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ptab, at, err := p.CreateTable(0, "accounts", testSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 12; k++ {
		tx := p.Begin()
		if at, err = ptab.Insert(tx, at, tuple.Row{k, fmt.Sprintf("u%d", k), k}); err != nil {
			t.Fatal(err)
		}
		if at, err = p.Commit(tx, at); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = p.CreateIndexLogged(at, "accounts", "by_balance", "balance"); err != nil {
		t.Fatal(err)
	}
	return p, ptab, walDev, at
}

// setBalance returns the mutation that moves a row's indexed column.
func setBalance(v int64) func(tuple.View, []byte) ([]byte, error) {
	return func(r tuple.View, dst []byte) ([]byte, error) {
		e := r.Edit()
		e.SetInt64(2, v)
		return e.Append(dst)
	}
}

// TestReplicaRestartThenOutcome restarts a follower while a transaction is
// undecided in its mirrored log — one that wrote an item twice, inserted a
// fresh one, deleted one and moved an indexed column — and then ships the
// outcome. The heap rebuild must have left the writer where incremental apply
// would have, so that the commit (or, in the second run, the abort) patches
// the restarted follower into the state of one that never restarted, and of
// the primary.
func TestReplicaRestartThenOutcome(t *testing.T) {
	for _, k := range kinds() {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/commit=%v", k, commit), func(t *testing.T) {
				if servedOnly(t, k) {
					return
				}
				p, ptab, walDev, at := replayPrimary(t, k)
				const maxKey, secIdx = 21, 0
				must := func(a simclock.Time, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					at = a
				}

				open := p.Begin()
				must(ptab.Update(open, at, 3, setBalance(30)))
				must(ptab.Update(open, at, 3, setBalance(31)))
				must(ptab.Insert(open, at, tuple.Row{int64(20), "fresh", int64(20)}))
				must(ptab.Delete(open, at, 5))
				must(ptab.Update(open, at, 7, setBalance(70)))
				by := p.Begin() // a bystander commits behind the open writer
				must(ptab.Update(by, at, 9, setBalance(90)))
				must(p.Commit(by, at))
				must(p.Checkpoint(at))

				live := newApplyReplica(t, k)
				live.catchUp(t, scanLog(t, walDev))
				live.refresh(t)
				re := live.restart(t)
				if ids := re.tab.sias.ReplayInFlight(); len(ids) != 1 || ids[0] != open.ID {
					t.Fatalf("restarted follower tracks %v as undecided, want [%d]", ids, open.ID)
				}
				diffStates(t, "undecided live-vs-restarted",
					snapshotReads(t, live.db, live.tab, maxKey, secIdx),
					snapshotReads(t, re.db, re.tab, maxKey, secIdx))

				if commit {
					must(p.Commit(open, at))
				} else {
					must(p.Abort(open, at))
				}
				// More work on the items the open transaction held, and beside.
				after := p.Begin()
				must(ptab.Update(after, at, 3, setBalance(33)))
				must(ptab.Update(after, at, 7, setBalance(71)))
				must(ptab.Insert(after, at, tuple.Row{int64(21), "later", int64(21)}))
				must(p.Commit(after, at))
				must(p.Checkpoint(at))

				recs := scanLog(t, walDev)
				for _, rep := range []*applyReplica{live, re} {
					rep.catchUp(t, recs)
					rep.refresh(t)
				}
				if ids := re.tab.sias.ReplayInFlight(); len(ids) != 0 {
					t.Errorf("restarted follower still tracks %v after the outcome shipped", ids)
				}
				want := snapshotReads(t, p, ptab, maxKey, secIdx)
				diffStates(t, "decided primary-vs-live", want, snapshotReads(t, live.db, live.tab, maxKey, secIdx))
				diffStates(t, "decided primary-vs-restarted", want, snapshotReads(t, re.db, re.tab, maxKey, secIdx))
				if _, gone := want.scan[5]; gone == commit {
					t.Fatalf("key 5 present=%v after commit=%v: the scenario did not run as written", gone, commit)
				}
			})
		}
	}
}

// TestPromoteFinishesUndecided promotes a follower whose stream ended with
// two transactions undecided, one of them a prepared 2PC participant. The
// promoted engine must serve none of their versions, take writes on the items
// they held, and — after maintenance and a few hundred more transactions —
// read exactly like a crash-recovered copy of its own log: promotion and
// recovery finish undecided transactions the same way.
func TestPromoteFinishesUndecided(t *testing.T) {
	for _, k := range kinds() {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%v/seed%d", k, seed), func(t *testing.T) {
				if servedOnly(t, k) {
					return
				}
				p, ptab, walDev, at := replayPrimary(t, k)
				const secIdx = 0
				must := func(a simclock.Time, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					at = a
				}
				open := p.Begin()
				must(ptab.Update(open, at, 2, setBalance(20)))
				must(ptab.Update(open, at, 2, setBalance(21)))
				must(ptab.Insert(open, at, tuple.Row{int64(30), "never", int64(30)}))
				prepared := p.Begin()
				must(ptab.Update(prepared, at, 4, setBalance(40)))
				must(ptab.Delete(prepared, at, 6))
				must(p.Prepare(prepared, 77, 1, at))
				by := p.Begin()
				must(ptab.Update(by, at, 9, setBalance(90)))
				must(p.Commit(by, at))
				must(p.Checkpoint(at))
				want := snapshotReads(t, p, ptab, 30, secIdx) // sees neither: both are in progress

				f := newApplyReplica(t, k)
				f.catchUp(t, scanLog(t, walDev))
				var err error
				if f.at, err = f.db.Promote(f.at); err != nil {
					t.Fatalf("promote: %v", err)
				}
				diffStates(t, "promoted-vs-primary", want, snapshotReads(t, f.db, f.tab, 30, secIdx))
				if st := f.db.Stats(); st.InDoubtAborts != 1 || st.InDoubtCommits != 0 {
					t.Errorf("in-doubt resolved %d aborts / %d commits, want 1 / 0", st.InDoubtAborts, st.InDoubtCommits)
				}

				// The items the dead transactions held take writes again.
				fat := f.at
				fmust := func(a simclock.Time, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					fat = a
				}
				tx := f.db.Begin()
				fmust(f.tab.Update(tx, fat, 2, setBalance(22)))
				fmust(f.tab.Update(tx, fat, 4, setBalance(44)))
				fmust(f.tab.Delete(tx, fat, 6))
				fmust(f.tab.Insert(tx, fat, tuple.Row{int64(30), "now", int64(31)}))
				fmust(f.db.Commit(tx, fat))
				fmust(f.db.RunMaintenance(fat))

				rng := rand.New(rand.NewSource(seed))
				live := []int64{1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 30}
				nextKey := int64(31)
				for i := 0; i < 200; i++ {
					tx := f.db.Begin()
					inserted, deleted := int64(0), -1
					switch n := rng.Intn(10); {
					case n < 3:
						inserted = nextKey
						nextKey++
						fmust(f.tab.Insert(tx, fat, tuple.Row{inserted, "w", rng.Int63n(50)}))
					case n < 9:
						fmust(f.tab.Update(tx, fat, live[rng.Intn(len(live))], setBalance(rng.Int63n(50))))
					default:
						deleted = rng.Intn(len(live))
						fmust(f.tab.Delete(tx, fat, live[deleted]))
					}
					if rng.Intn(8) == 0 {
						fmust(f.db.Abort(tx, fat))
						continue
					}
					fmust(f.db.Commit(tx, fat))
					if inserted != 0 {
						live = append(live, inserted)
					}
					if deleted >= 0 {
						live = append(live[:deleted], live[deleted+1:]...)
					}
					if i%50 == 49 {
						fmust(f.db.RunMaintenance(fat))
					}
				}

				// Crash a copy of the promoted engine and recover it as what
				// it now is, a primary.
				cdb, ctab := crashAndRecover(t, k, cloneMem(t, f.data), cloneMem(t, f.walDev))
				diffStates(t, "promoted-vs-recovered",
					snapshotReads(t, f.db, f.tab, nextKey, secIdx),
					snapshotReads(t, cdb, ctab, nextKey, secIdx))
			})
		}
	}
}

// TestPromoteCommitsDecidedCoordinator promotes a follower whose stream ends
// between a 2PC coordinator's commit decision and the RecCommit the decide
// flush put behind it. A follower only receives what the primary made
// durable, so the decision it holds was the commit point: the promoted engine
// must commit the coordinator's writes — the other shards may already show
// theirs — and agree with crash recovery of the same log.
func TestPromoteCommitsDecidedCoordinator(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			if servedOnly(t, k) {
				return
			}
			p, ptab, walDev, at := replayPrimary(t, k)
			const maxKey, secIdx = 12, 0
			coord := p.Begin()
			at, err := ptab.Update(coord, at, 4, setBalance(44))
			if err != nil {
				t.Fatal(err)
			}
			w := p.WAL()
			if _, err := w.Flush(at, w.Append(&wal.Record{Type: wal.RecDecide, Tx: coord.ID, Aux: 77, Data: wal.EncodeDecideData(true)})); err != nil {
				t.Fatal(err)
			}

			f := newApplyReplica(t, k)
			f.catchUp(t, scanLog(t, walDev))
			cdb, ctab := crashAndRecover(t, k, cloneMem(t, f.data), cloneMem(t, f.walDev))
			if f.at, err = f.db.Promote(f.at); err != nil {
				t.Fatalf("promote: %v", err)
			}
			for name, db := range map[string]*DB{"promoted": f.db, "recovered": cdb} {
				if st := db.Stats(); st.InDoubtCommits != 1 || st.InDoubtAborts != 0 {
					t.Errorf("%s: in-doubt resolved %d commits / %d aborts, want 1 / 0", name, st.InDoubtCommits, st.InDoubtAborts)
				}
			}
			got := snapshotReads(t, f.db, f.tab, maxKey, secIdx)
			if got.gets[4] != "[4 u4 44]" {
				t.Errorf("promoted engine reads key 4 as %s, want the coordinator's committed update", got.gets[4])
			}
			diffStates(t, "promoted-vs-recovered", got, snapshotReads(t, cdb, ctab, maxKey, secIdx))
		})
	}
}
