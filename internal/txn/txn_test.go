package txn

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBeginAssignsMonotonicIDs(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if t1.ID != 1 || t2.ID != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", t1.ID, t2.ID)
	}
}

func TestSnapshotCapturesConcurrent(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if !t2.Snap.InConcurrent(t1.ID) {
		t.Error("t1 should be in t2's concurrent set")
	}
	if t2.Snap.InConcurrent(t2.ID) {
		t.Error("a transaction is not concurrent with itself")
	}
	m.Commit(t1)
	t3 := m.Begin()
	if t3.Snap.InConcurrent(t1.ID) {
		t.Error("committed t1 must not be concurrent with t3")
	}
	if !t3.Snap.InConcurrent(t2.ID) {
		t.Error("running t2 must be concurrent with t3")
	}
	m.Commit(t2)
	m.Commit(t3)
}

// TestVisibilityMatrix exercises the paper's isVisible predicate:
// create <= tx.id AND create not concurrent AND create committed.
func TestVisibilityMatrix(t *testing.T) {
	m := NewManager()
	committed := m.Begin() // id 1
	m.Commit(committed)
	aborted := m.Begin() // id 2
	m.Abort(aborted)
	running := m.Begin() // id 3

	tx := m.Begin() // id 4

	later := m.Begin() // id 5 — starts after tx

	cases := []struct {
		name   string
		create ID
		want   bool
	}{
		{"own write", tx.ID, true},
		{"committed before start", committed.ID, true},
		{"aborted before start", aborted.ID, false},
		{"concurrent running", running.ID, false},
		{"started later", later.ID, false},
		{"never assigned", 999, false},
	}
	for _, c := range cases {
		if got := tx.Visible(c.create); got != c.want {
			t.Errorf("%s: Visible(%d) = %v, want %v", c.name, c.create, got, c.want)
		}
	}

	// A concurrent transaction committing mid-flight stays invisible:
	// the snapshot was taken at Begin.
	m.Commit(running)
	if tx.Visible(running.ID) {
		t.Error("transaction that committed after tx began must stay invisible")
	}
	// But a transaction starting afterwards sees it.
	after := m.Begin()
	if !after.Visible(running.ID) {
		t.Error("later transaction must see the commit")
	}
}

func TestVisibilityMonotoneAcrossGenerations(t *testing.T) {
	// Property-ish: once a version's creator commits and no snapshot holds
	// it concurrent, every later transaction sees it until superseded.
	m := NewManager()
	writer := m.Begin()
	m.Commit(writer)
	for i := 0; i < 20; i++ {
		tx := m.Begin()
		if !tx.Visible(writer.ID) {
			t.Fatalf("generation %d lost visibility of committed writer", i)
		}
		m.Commit(tx)
	}
}

func TestCLOGDefaultsInProgress(t *testing.T) {
	c := NewCLOG()
	if got := c.Get(12345); got != StatusInProgress {
		t.Errorf("unknown id status = %v, want in-progress", got)
	}
	c.Set(3, StatusCommitted)
	if c.Get(3) != StatusCommitted {
		t.Error("Set/Get mismatch")
	}
	if c.Get(2) != StatusInProgress {
		t.Error("neighbour id affected")
	}
}

func TestHorizon(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	_ = m.Begin() // t2 keeps the manager busy
	if h := m.Horizon(); h != t1.ID {
		t.Errorf("horizon = %d, want %d (t1's xmin)", h, t1.ID)
	}
	m.Commit(t1)
	// t2's snapshot xmin is 1 (t1 was active when t2 began)… after t1
	// commits, horizon is t2's xmin.
	h := m.Horizon()
	if h != 1 {
		t.Errorf("horizon = %d, want 1 (t2 still holds xmin 1)", h)
	}
}

func TestReadOnlySnapshotPinsHorizon(t *testing.T) {
	m := NewManager()
	for i := 0; i < 5; i++ {
		m.Commit(m.Begin())
	}
	token := m.Horizon() // 6: ids 1..5 are decided
	// Two pins at the same token must be counted, not collapsed.
	r1 := m.BeginReadOnlyAt(token)
	r2 := m.BeginReadOnlyAt(token)
	m.Commit(m.Begin())
	if h := m.Horizon(); h != token {
		t.Fatalf("horizon = %d with live read-only snapshots, want %d", h, token)
	}
	if err := m.Abort(r1); err != nil {
		t.Fatal(err)
	}
	if h := m.Horizon(); h != token {
		t.Fatalf("horizon = %d with one pin left, want %d", h, token)
	}
	if err := m.Commit(r2); err != nil {
		t.Fatal(err)
	}
	if h, next := m.Horizon(), m.NextID(); h != next {
		t.Fatalf("horizon = %d after releasing all pins, want %d", h, next)
	}
}

func TestFinishIdempotence(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); !errors.Is(err, ErrFinished) {
		t.Errorf("second commit err = %v, want ErrFinished", err)
	}
	if err := m.Abort(tx); !errors.Is(err, ErrFinished) {
		t.Errorf("abort after commit err = %v, want ErrFinished", err)
	}
}

func TestOnFinishHookOrderAndFlag(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var calls []bool
	tx.OnFinish(func(c bool) { calls = append(calls, c) })
	tx.OnFinish(func(c bool) { calls = append(calls, c) })
	m.Commit(tx)
	if len(calls) != 2 || !calls[0] || !calls[1] {
		t.Errorf("commit hooks = %v", calls)
	}

	tx2 := m.Begin()
	var aborted bool
	tx2.OnFinish(func(c bool) { aborted = !c })
	m.Abort(tx2)
	if !aborted {
		t.Error("abort hook did not run with committed=false")
	}
}

func TestLockExclusionAndHandoff(t *testing.T) {
	m := NewManager()
	key := LockKey{Rel: 1, Item: 42}
	t1 := m.Begin()
	if err := m.Locks().Acquire(t1, key); err != nil {
		t.Fatal(err)
	}
	// Re-entrant for the same transaction.
	if err := m.Locks().Acquire(t1, key); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if m.Locks().TryAcquire(t2, key) {
		t.Fatal("TryAcquire should fail while t1 holds the lock")
	}

	got := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got <- m.Locks().Acquire(t2, key)
	}()
	time.Sleep(20 * time.Millisecond)
	m.Commit(t1) // releases the lock, wakes t2
	wg.Wait()
	if err := <-got; err != nil {
		t.Fatalf("waiter acquire: %v", err)
	}
	t3 := m.Begin()
	if m.Locks().TryAcquire(t3, key) {
		t.Error("TryAcquire should fail while t2 holds the lock")
	}
	m.Commit(t2)
	if !m.Locks().TryAcquire(t3, key) {
		t.Error("lock should be free after t2 commits")
	}
	m.Commit(t3)
}

func TestLockTimeout(t *testing.T) {
	m := NewManager()
	m.WaitBudget = 50 * time.Millisecond
	key := LockKey{Rel: 1, Item: 7}
	t1 := m.Begin()
	if err := m.Locks().Acquire(t1, key); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	start := time.Now()
	err := m.Locks().Acquire(t2, key)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took far too long")
	}
	m.Commit(t1)
	m.Commit(t2)
}

func TestConcurrentLockStress(t *testing.T) {
	m := NewManager()
	key := LockKey{Rel: 9, Item: 1}
	const workers = 16
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				tx := m.Begin()
				if err := m.Locks().Acquire(tx, key); err != nil {
					t.Errorf("acquire: %v", err)
					m.Abort(tx)
					return
				}
				counter++ // protected by the lock: race detector verifies
				m.Commit(tx)
			}
		}()
	}
	wg.Wait()
	if counter != workers*25 {
		t.Errorf("counter = %d, want %d", counter, workers*25)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	m := NewManager()
	key := LockKey{Rel: 2, Item: 2}
	tx := m.Begin()
	m.Locks().Acquire(tx, key)
	m.Abort(tx)
	t2 := m.Begin()
	if !m.Locks().TryAcquire(t2, key) {
		t.Error("lock not released by abort")
	}
	m.Commit(t2)
}

// TestLockAllocBudget pins uncontended locks at 0 allocations beyond the Tx:
// Begin + n Acquires + Commit allocates what Begin + Commit does, for as
// many locks as the Tx's inline array holds. Each entry comes from the
// table's free list, where an earlier release put it; the keys land in the
// inline array.
func TestLockAllocBudget(t *testing.T) {
	m := NewManager()
	item := uint64(0)
	locking := func(n int) func() {
		return func() {
			tx := m.Begin()
			for i := 0; i < n; i++ {
				item++
				if err := m.Locks().Acquire(tx, LockKey{Rel: 1, Item: item}); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := func() {
		if err := m.Commit(m.Begin()); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{2, len(Tx{}.lockBuf)} {
		run := locking(n)
		for i := 0; i < 100; i++ { // warm the CLOG, the maps, the free list and the pool
			run()
		}
		withLocks := testing.AllocsPerRun(1000, run)
		without := testing.AllocsPerRun(1000, bare)
		if without > 1 {
			t.Errorf("Begin + Commit allocates %v times, want 1 (the Tx)", without)
		}
		if withLocks != without {
			t.Errorf("%d uncontended locks cost %v allocations, want 0", n, withLocks-without)
		}
	}
}

// TestLockTimeoutThenRecycle times a waiter out, releases the holder and at
// once locks that key and another with a third transaction, over and over,
// so recycled entries are handed out while timed-out waiters' timers may
// still fire. Under -race it shows a fired timer touches only its own entry
// under the table mutex; it also checks that no entry a waiter made a cond
// for reaches the free list, where a late broadcast could wake a waiter on
// an unrelated key.
func TestLockTimeoutThenRecycle(t *testing.T) {
	m := NewManager()
	m.WaitBudget = time.Millisecond
	lt := m.Locks()
	for i := uint64(0); i < 20; i++ {
		key, other := LockKey{Rel: 1, Item: 2 * i}, LockKey{Rel: 1, Item: 2*i + 1}
		holder, waiter := m.Begin(), m.Begin()
		if err := lt.Acquire(holder, key); err != nil {
			t.Fatal(err)
		}
		if err := lt.Acquire(waiter, key); !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("waiter: %v, want ErrLockTimeout", err)
		}
		if err := m.Commit(holder); err != nil {
			t.Fatal(err)
		}
		next, third := m.Begin(), m.Begin()
		for _, k := range []LockKey{other, key} {
			if err := lt.Acquire(next, k); err != nil {
				t.Fatalf("after the timeout: %v", err)
			}
			if lt.TryAcquire(third, k) {
				t.Fatalf("a second transaction took %v while the new one holds it", k)
			}
		}
		lt.mu.Lock()
		for _, e := range lt.free {
			if e.cond != nil || e.holder != nil || e.waiters != 0 {
				t.Errorf("free list holds a used entry: %+v", *e)
			}
		}
		lt.mu.Unlock()
		m.Commit(next)
		m.Abort(third)
		m.Abort(waiter)
	}
}

// TestManyHooksAndLocksStayInOrder registers more hooks and locks than the
// inline arrays hold, over several transactions: every hook runs once,
// newest first, and every lock is released.
func TestManyHooksAndLocksStayInOrder(t *testing.T) {
	m := NewManager()
	for round := 0; round < 5; round++ {
		tx := m.Begin()
		var order []int
		for i := 0; i < 40; i++ {
			tx.OnFinish(func(bool) { order = append(order, i) })
			if err := m.Locks().Acquire(tx, LockKey{Rel: 3, Item: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if len(order) != 40 {
			t.Fatalf("round %d: %d hooks ran, want 40", round, len(order))
		}
		for j, i := range order {
			if i != 39-j {
				t.Fatalf("round %d: hook %d ran in place %d, want newest first", round, i, j)
			}
		}
		probe := m.Begin()
		for i := 0; i < 40; i++ {
			if !m.Locks().TryAcquire(probe, LockKey{Rel: 3, Item: uint64(i)}) {
				t.Fatalf("round %d: item %d still locked", round, i)
			}
		}
		m.Abort(probe)
	}
}
