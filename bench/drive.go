package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sias/internal/client"
)

// txnRec is one committed transaction as its client saw it.
type txnRec struct {
	end    int64 // Commit acknowledged, ns since the phase began
	lat    int64 // Begin sent -> Commit acknowledged, ns
	commit int64 // the Commit call alone, ns
	class  int
}

// phaseStats is what one closed-loop phase observed, merged over clients.
type phaseStats struct {
	attempted int
	failed    int
	updates   int // Update ops of committed transactions
	torn      int // xshard reads that saw the two keys of a group at different tokens
	firstErr  error
	txns      []txnRec // committed transactions
}

func (p *phaseStats) merge(q *phaseStats) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.updates += q.updates
	p.torn += q.torn
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.txns = append(p.txns, q.txns...)
}

func (p *phaseStats) committed() int { return len(p.txns) }

// latencies returns, in completion order, what pick reads from the committed
// transactions of a class.
func (p *phaseStats) latencies(class int, pick func(*txnRec) int64) []int64 {
	var out []int64
	for i := range p.txns {
		if p.txns[i].class == class {
			out = append(out, pick(&p.txns[i]))
		}
	}
	return out
}

func txnLatency(t *txnRec) int64    { return t.lat }
func commitLatency(t *txnRec) int64 { return t.commit }

// world is one loaded deployment plus the model it is checked against.
type world struct {
	sp    *spec
	or    *oracle
	gen   *generator
	order []int // key indices in scan order
	txnID [clients]int64
}

func newWorld(sp *spec, seed int64) *world {
	or := newOracle(sp)
	return &world{sp: sp, or: or, gen: newGenerator(sp, seed), order: or.sorted()}
}

// clientLoop is one closed-loop client: it sends its next request when the
// previous reply has arrived, until stop says so.
type clientLoop struct {
	w     *world
	c     int
	begin beginner
	log   *spanLog // nil = untraced
	phase time.Time
	st    phaseStats
	val   []byte
	lo    []uint64
}

// call runs fn, recording a span around it on the traced run.
func (cl *clientLoop) call(root, txn int64, op string, fn func() error) error {
	if cl.log == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	cl.log.add(root, txn, op, t0, time.Now())
	return err
}

// run executes one planned transaction and checks everything it reads. On a
// quiesced system (no writers) a torn xshard group is a failure; seen, if
// non-nil, receives the seq a scan read each index at.
func (cl *clientLoop) run(t txnPlan, quiesced bool, seen []uint64) {
	or, st := cl.w.or, &cl.st
	st.attempted++
	cl.w.txnID[cl.c]++
	txn := cl.w.txnID[cl.c]*clients + int64(cl.c)

	// Lower bounds are read before Begin is sent: whatever was acknowledged
	// by now is committed before this transaction's snapshot is taken.
	lo := cl.lo[:0]
	switch t.class {
	case classR:
		for _, i := range t.idx[:t.n] {
			lo = append(lo, or.acked[i].Load())
		}
	case classS:
		for _, i := range cl.w.order[t.idx[0] : t.idx[0]+scanRows] {
			lo = append(lo, or.acked[i].Load())
		}
	}

	var root int64
	start := time.Now()
	if cl.log != nil {
		root = cl.log.add(0, txn, classNames[t.class], start, start)
	}
	fail := func(tx kvTx, err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("%s: client %d %s: %w", cl.w.sp.name, cl.c, classNames[t.class], err)
		}
		if tx != nil {
			_ = tx.Abort() // best effort: the failure is already counted
		}
	}

	var tx kvTx
	err := cl.call(root, txn, "begin", func() (err error) { tx, err = cl.begin(); return })
	if err != nil {
		fail(nil, err)
		return
	}
	var seqs [4]uint64
	switch t.class {
	case classW:
		for j, i := range t.idx[:t.n] {
			seqs[j] = or.attempted[i].Load() + 1
			encodeValue(cl.val, or.keys[i], seqs[j], cl.c)
			or.attempted[i].Store(seqs[j])
			if err := cl.call(root, txn, "update", func() error { return tx.Update(or.keys[i], cl.val) }); err != nil {
				fail(tx, err)
				return
			}
		}
	case classR:
		for j, i := range t.idx[:t.n] {
			var val []byte
			if err := cl.call(root, txn, "get", func() (err error) { val, err = tx.Get(or.keys[i]); return }); err != nil {
				fail(tx, err)
				return
			}
			seq, err := or.checkValue(val, i, lo[j], or.attempted[i].Load())
			if err != nil {
				fail(tx, err)
				return
			}
			seqs[j] = seq
		}
		if cl.w.sp.xshard && seqs[0] != seqs[1] {
			if quiesced {
				fail(tx, fmt.Errorf("group of key %d is torn after recovery: tokens %d and %d", or.keys[t.idx[0]], seqs[0], seqs[1]))
				return
			}
			st.torn++
		}
	case classS:
		pos := t.idx[0]
		first, last := or.keys[cl.w.order[pos]], or.keys[cl.w.order[pos+scanRows-1]]
		var rows []client.KV
		if err := cl.call(root, txn, "scan", func() (err error) { rows, err = tx.Scan(first, last, 0); return }); err != nil {
			fail(tx, err)
			return
		}
		if err := or.checkScan(rows, cl.w.order, pos, lo, seen); err != nil {
			fail(tx, err)
			return
		}
	}
	c0 := time.Now()
	if err := cl.call(root, txn, "commit", tx.Commit); err != nil {
		fail(nil, err)
		return
	}
	end := time.Now()
	if cl.log != nil {
		cl.log.spans[root-cl.log.base-1].End = end.Sub(cl.log.epoch).Nanoseconds()
	}
	st.txns = append(st.txns, txnRec{
		end: end.Sub(cl.phase).Nanoseconds(), lat: end.Sub(start).Nanoseconds(),
		commit: end.Sub(c0).Nanoseconds(), class: t.class,
	})
	if t.class == classW {
		st.updates += t.n
		for j, i := range t.idx[:t.n] {
			or.acked[i].Store(seqs[j])
		}
	}
}

// drive runs the closed loop on the given rung until next is exhausted for
// every client, and returns the merged observations. logs, if non-nil, holds
// one span log per client; quiesced and seen are passed to run.
func (w *world) drive(rungs []beginner, logs []*spanLog, next func(c, done int) (txnPlan, bool), quiesced bool, seen []uint64) phaseStats {
	loops := make([]*clientLoop, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range loops {
		cl := &clientLoop{w: w, c: c, begin: rungs[c], phase: start, val: make([]byte, w.sp.valueSize), lo: make([]uint64, 0, scanRows)}
		if logs != nil {
			cl.log = logs[c]
		}
		loops[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard()
			for done := 0; ; done++ {
				t, ok := next(cl.c, done)
				if !ok {
					return
				}
				cl.run(t, quiesced, seen)
			}
		}()
	}
	wg.Wait()
	var st phaseStats
	for _, cl := range loops {
		st.merge(&cl.st)
	}
	sort.Slice(st.txns, func(a, b int) bool { return st.txns[a].end < st.txns[b].end })
	return st
}

// forCount generates n transactions per client.
func (w *world) forCount(n int) func(c, done int) (txnPlan, bool) {
	return func(c, done int) (txnPlan, bool) {
		if done >= n {
			return txnPlan{}, false
		}
		return w.gen.next(c), true
	}
}
