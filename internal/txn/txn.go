// Package txn implements the transactional substrate shared by the SI
// baseline and the SIAS engine: transaction id allocation, snapshots,
// a commit log (CLOG), and transaction locks with first-updater-wins
// semantics.
//
// Snapshot isolation follows Berenson et al.: a transaction sees exactly the
// versions committed before it started. Per the paper's Algorithm 1, a tuple
// version X is visible to transaction tx iff
//
//	X.create <= tx.id  AND  X.create not in tx.concurrent
//
// augmented (as in any real system) with the requirement that X.create
// actually committed — versions of aborted transactions are never visible.
// The "concurrent" set is captured at Begin time; a transaction always sees
// its own writes. The Manager keeps the running transactions in one list in
// id order, so Begin copies the concurrent set from it as it stands, and the
// GC horizon is read off its head.
package txn

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a transaction identifier. IDs are assigned in Begin order and double
// as the creation "timestamp" on tuple versions, exactly as in the paper.
type ID uint64

// InvalidID is the zero, never-assigned transaction id.
const InvalidID ID = 0

// Status is the lifecycle state of a transaction recorded in the CLOG.
type Status uint8

// Transaction states.
const (
	StatusInProgress Status = iota
	StatusCommitted
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusInProgress:
		return "in-progress"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	}
	return "unknown"
}

// Errors returned by the transaction layer.
var (
	// ErrSerialization is the first-updater-wins failure: a concurrent
	// transaction already updated (and committed) the data item.
	ErrSerialization = errors.New("txn: could not serialize access due to concurrent update")
	// ErrLockTimeout is returned when a lock wait exceeds its deadline,
	// which subsumes deadlock handling.
	ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")
	// ErrFinished is returned when operating on a committed/aborted tx.
	ErrFinished = errors.New("txn: transaction already finished")
)

// Snapshot captures the visibility horizon of a transaction at Begin.
type Snapshot struct {
	// XMax is the first transaction id NOT assigned at Begin time; ids at or
	// above it belong to transactions that started later.
	XMax ID
	// Concurrent holds the ids that were in progress at Begin, sorted.
	Concurrent []ID
}

// InConcurrent reports whether id was running when the snapshot was taken.
func (s *Snapshot) InConcurrent(id ID) bool {
	_, ok := slices.BinarySearch(s.Concurrent, id)
	return ok
}

// Tx is a running (or finished) transaction.
type Tx struct {
	ID       ID
	Snap     Snapshot
	mgr      *Manager
	readOnly bool
	wrote    atomic.Bool
	mu       sync.Mutex
	status   Status
	locks    []LockKey
	onFinish []func(committed bool)
	// locks and onFinish start on these inline arrays, so a transaction
	// that writes a few items allocates neither slice; past them append
	// grows the slices as usual.
	lockBuf [4]LockKey
	hookBuf [4]func(committed bool)
}

// ReadOnly reports whether t was started by BeginReadOnlyAt and therefore
// never writes, holds no locks, and has no CLOG entry of its own.
func (t *Tx) ReadOnly() bool { return t.readOnly }

// MarkWrote records that t is about to create a tuple version. The storage
// managers call it on entry to every version-creating operation, before the
// first byte reaches the log, so "a WAL record or a stored version carries
// t's id" implies Wrote. Holding locks is not the test: an insert locks
// nothing under the SI baseline and a failed update locks without writing.
func (t *Tx) MarkWrote() {
	if !t.readOnly {
		t.wrote.Store(true)
	}
}

// Wrote reports whether t ever entered a version-creating operation. A
// transaction that did not has left nothing on any page or in the log that
// names its id, so its outcome needs no log record and no flush: committing
// it only releases its snapshot. ReadOnly transactions never count — they
// have no id to log under.
func (t *Tx) Wrote() bool { return t.wrote.Load() }

// Status returns the transaction's current state.
func (t *Tx) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// OnFinish registers fn to run when the transaction commits or aborts,
// after the CLOG is updated but before locks are released. Storage managers
// use this to flip their in-memory entrypoint state atomically with commit.
func (t *Tx) OnFinish(fn func(committed bool)) {
	t.mu.Lock()
	t.onFinish = append(t.onFinish, fn)
	t.mu.Unlock()
}

// WriteSetFingerprint folds the transaction's write set (the lock keys it
// holds — one per written data item) into an order-independent 64-bit hash.
// A 2PC participant logs it in its PREPARE record so recovery and operators
// can sanity-check that the prepared state matches what the coordinator
// fanned out. Must be called before Commit/Abort: finish() releases the
// locks, after which the set is empty.
func (t *Tx) WriteSetFingerprint() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var fp uint64
	for _, k := range t.locks {
		// SplitMix64-style mix of each key; XOR keeps the fold independent of
		// lock-acquisition order.
		x := uint64(k.Rel)<<40 ^ k.Item
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		fp ^= x
	}
	return fp
}

// Visible implements the paper's isVisible check for this transaction:
// the version created by `create` is visible iff it is the transaction's own
// write, or it committed before this transaction began.
func (t *Tx) Visible(create ID) bool {
	if create == t.ID {
		return true
	}
	if create >= t.Snap.XMax {
		return false // started after us
	}
	if t.Snap.InConcurrent(create) {
		return false // running while we started
	}
	return t.mgr.clog.Get(create) == StatusCommitted
}

// Manager allocates transaction ids, keeps the running transactions, owns
// the CLOG and the lock table.
type Manager struct {
	mu     sync.Mutex
	nextID ID
	// running holds every transaction that took an id and has not finished,
	// in id order: Begin assigns the id and appends under mu, so the list
	// stays sorted, and its ids are the next snapshot's concurrent set. The
	// head has the least xmin (the smallest id its snapshot saw running, or
	// its own id), so Horizon reads only the head: every later snapshot
	// either saw the head running, or began after everything older than the
	// head had finished — anything older it saw running had begun before the
	// head and still ran when the head began, so the head saw it too.
	running []*Tx
	// pinned counts live read-only snapshots (BeginReadOnlyAt) by their
	// xmax. They take no id and never enter running, but the GC
	// horizon must not pass them while they run: a pinned AS OF scan reads
	// version-chain suffixes that GC would otherwise reclaim mid-scan.
	pinned map[ID]int

	clog  *CLOG
	locks *LockTable

	// WaitBudget bounds a lock wait; it subsumes deadlock detection.
	WaitBudget time.Duration
}

// NewManager returns a manager whose first transaction gets id 1.
func NewManager() *Manager {
	m := &Manager{
		nextID:     1,
		pinned:     map[ID]int{},
		clog:       NewCLOG(),
		WaitBudget: 2 * time.Second,
	}
	m.locks = NewLockTable(m)
	return m
}

// CLOG exposes the commit log (recovery rebuilds it from WAL records).
func (m *Manager) CLOG() *CLOG { return m.clog }

// Begin starts a transaction, capturing its snapshot atomically with id
// assignment. It leaves the CLOG alone: an id without a slot reads as
// in-progress, and no id is handed out twice.
func (m *Manager) Begin() *Tx {
	t := &Tx{mgr: m, status: StatusInProgress}
	t.locks = t.lockBuf[:0]
	t.onFinish = t.hookBuf[:0]
	m.mu.Lock()
	t.ID = m.nextID
	m.nextID++
	t.Snap.XMax = t.ID
	if len(m.running) > 0 {
		t.Snap.Concurrent = make([]ID, len(m.running))
		for i, r := range m.running {
			t.Snap.Concurrent[i] = r.ID
		}
	}
	m.running = append(m.running, t)
	m.mu.Unlock()
	return t
}

// BeginReadOnlyAt starts a read-only transaction whose snapshot sees every
// transaction with id < xmax whose CLOG status is committed, and nothing
// else. A replication follower serves scans with it: xmax is one past the
// highest replayed transaction id, the tx takes no id of its own (ID 0), is
// never among the running transactions, and never writes the CLOG —
// replayed commit statuses stay authoritative and the id space remains the
// primary's alone.
//
// While it runs, the transaction pins the GC horizon at xmax (see Horizon),
// so versions its snapshot can reach are not reclaimed under it. The pin is
// released by Commit or Abort like any other transaction.
func (m *Manager) BeginReadOnlyAt(xmax ID) *Tx {
	m.mu.Lock()
	m.pinned[xmax]++
	m.mu.Unlock()
	return &Tx{
		readOnly: true,
		Snap:     Snapshot{XMax: xmax},
		mgr:      m,
		status:   StatusInProgress,
	}
}

// NextID reports the id the next Begin would assign, without assigning it.
func (m *Manager) NextID() ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextID
}

// finish transitions a transaction to its final state.
func (m *Manager) finish(t *Tx, st Status) error {
	t.mu.Lock()
	if t.status != StatusInProgress {
		t.mu.Unlock()
		return ErrFinished
	}
	t.status = st
	hooks := t.onFinish
	t.onFinish = nil
	locks := t.locks
	t.locks = nil
	t.mu.Unlock()

	if !t.readOnly {
		m.clog.Set(t.ID, st)
	}
	// LIFO, like defer: when one transaction updated the same item several
	// times, rollback must unwind the entrypoint swings newest-first so the
	// VIDmap lands back on the pre-transaction version.
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i](st == StatusCommitted)
	}
	m.mu.Lock()
	if t.readOnly {
		if n := m.pinned[t.Snap.XMax]; n > 1 {
			m.pinned[t.Snap.XMax] = n - 1
		} else {
			delete(m.pinned, t.Snap.XMax)
		}
	} else if i, ok := slices.BinarySearchFunc(m.running, t.ID, func(r *Tx, id ID) int {
		return cmp.Compare(r.ID, id)
	}); ok {
		m.running = slices.Delete(m.running, i, i+1)
	}
	m.mu.Unlock()
	for _, k := range locks {
		m.locks.release(t, k)
	}
	clear(hooks) // let the inline array drop the closures with the hooks run
	return nil
}

// Commit commits t: CLOG update, finish hooks, lock release, waiter wakeup.
func (m *Manager) Commit(t *Tx) error { return m.finish(t, StatusCommitted) }

// Abort rolls t back.
func (m *Manager) Abort(t *Tx) error { return m.finish(t, StatusAborted) }

// SetNextID fast-forwards the id allocator; used by recovery so new
// transactions sort after everything in the replayed log.
func (m *Manager) SetNextID(id ID) {
	m.mu.Lock()
	if id > m.nextID {
		m.nextID = id
	}
	m.mu.Unlock()
}

// Horizon returns the oldest transaction id that could still be relevant to
// any running snapshot: versions created before every running snapshot's
// xmin (the smallest id it saw running, or its own id) and superseded by
// equally-old successors are garbage. The least xmin is the head's (see
// Manager.running). Live read-only snapshots (BeginReadOnlyAt —
// AS OF and replica reads) pin the horizon at their xmax even though they
// hold no id and are not running.
func (m *Manager) Horizon() ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.nextID
	if len(m.running) > 0 {
		head := m.running[0]
		h = head.ID
		if len(head.Snap.Concurrent) > 0 {
			h = head.Snap.Concurrent[0]
		}
	}
	for xmax := range m.pinned {
		h = min(h, xmax)
	}
	return h
}

// Locks exposes the lock table.
func (m *Manager) Locks() *LockTable { return m.locks }

// CLOG records the final status of every transaction. It is a growable,
// mutex-protected array indexed by transaction id — the moral equivalent of
// PostgreSQL's pg_clog.
type CLOG struct {
	mu sync.RWMutex
	s  []Status
}

// NewCLOG returns an empty commit log.
func NewCLOG() *CLOG { return &CLOG{} }

// Set records the status of id.
func (c *CLOG) Set(id ID, st Status) {
	c.mu.Lock()
	for int(id) >= len(c.s) {
		c.s = append(c.s, StatusInProgress)
	}
	c.s[id] = st
	c.mu.Unlock()
}

// Get reports the status of id; unknown ids are in-progress (never assigned
// means never committed — recovery relies on this default for loser txns).
func (c *CLOG) Get(id ID) Status {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(id) >= len(c.s) {
		return StatusInProgress
	}
	return c.s[id]
}

// LockKey names a lockable data item: a relation and the item's stable
// identity within it (the VID under SIAS, the root TID's packed form under
// the SI baseline).
type LockKey struct {
	Rel  uint32
	Item uint64
}

func (k LockKey) String() string { return fmt.Sprintf("rel %d item %d", k.Rel, k.Item) }

type lockEntry struct {
	holder  *Tx
	waiters int
	cond    *sync.Cond // made by the first waiter: a lock nobody waits for needs none
}

// LockTable provides exclusive per-data-item transaction locks. The paper
// uses PostgreSQL transaction locks to implement first-updater-wins: an
// updater takes the item's lock for the remainder of its transaction; a
// second updater blocks until the first finishes (Algorithm 3, lines 7/15),
// then the caller re-validates the entrypoint and aborts if the first
// updater committed.
type LockTable struct {
	mgr *Manager
	mu  sync.Mutex
	// tab holds one map per relation, keyed by item: a lookup hashes a
	// word, not a padded LockKey.
	tab map[uint32]map[uint64]*lockEntry
	// free holds released entries that no waiter ever touched (no cond),
	// for the next acquire of any key: an uncontended lock allocates
	// nothing. An entry that had a waiter is never recycled, because a
	// waiter's fired timeout timer may still broadcast on its cond after the
	// entry left the table.
	free []*lockEntry
}

// maxFreeLockEntries bounds the recycled entries a table keeps.
const maxFreeLockEntries = 1024

// NewLockTable returns an empty table.
func NewLockTable(m *Manager) *LockTable {
	return &LockTable{mgr: m, tab: map[uint32]map[uint64]*lockEntry{}}
}

// Acquire takes the exclusive lock on key for t, blocking while another
// transaction holds it. Re-entrant for the same transaction. Returns
// ErrLockTimeout if the manager's WaitBudget elapses (deadlock escape).
func (lt *LockTable) Acquire(t *Tx, key LockKey) error {
	if t.Status() != StatusInProgress {
		return ErrFinished
	}
	lt.mu.Lock()
	e := lt.entryLocked(key)
	if e.holder == t {
		lt.mu.Unlock()
		return nil
	}
	if e.holder != nil {
		if e.cond == nil {
			e.cond = sync.NewCond(&lt.mu)
		}
		// One timer bounds the whole wait: when the budget runs out it
		// wakes every waiter on the entry, and this one sees expired.
		// Other waiters take the broadcast as a spurious wakeup.
		expired := false
		timer := time.AfterFunc(lt.mgr.WaitBudget, func() {
			lt.mu.Lock()
			expired = true
			e.cond.Broadcast()
			lt.mu.Unlock()
		})
		for e.holder != nil && !expired {
			e.waiters++
			e.cond.Wait()
			e.waiters--
		}
		timer.Stop()
		if e.holder != nil {
			// The entry stays: it has a holder, whose release removes it.
			lt.mu.Unlock()
			return ErrLockTimeout
		}
	}
	e.holder = t
	lt.mu.Unlock()

	t.mu.Lock()
	if t.status != StatusInProgress {
		// Lost a race with finish(); release immediately.
		t.mu.Unlock()
		lt.release(t, key)
		return ErrFinished
	}
	t.locks = append(t.locks, key)
	t.mu.Unlock()
	return nil
}

// TryAcquire takes the lock if free, without blocking. Reports success.
func (lt *LockTable) TryAcquire(t *Tx, key LockKey) bool {
	lt.mu.Lock()
	e := lt.entryLocked(key)
	if e.holder != nil && e.holder != t {
		lt.mu.Unlock()
		return false
	}
	already := e.holder == t
	e.holder = t
	lt.mu.Unlock()
	if !already {
		t.mu.Lock()
		t.locks = append(t.locks, key)
		t.mu.Unlock()
	}
	return true
}

// entryLocked returns key's entry, adding one — recycled if any is free —
// when the key has none. Caller holds lt.mu.
func (lt *LockTable) entryLocked(key LockKey) *lockEntry {
	items := lt.tab[key.Rel]
	if items == nil {
		items = map[uint64]*lockEntry{}
		lt.tab[key.Rel] = items
	}
	e := items[key.Item]
	if e == nil {
		if n := len(lt.free); n > 0 {
			e = lt.free[n-1]
			lt.free[n-1] = nil
			lt.free = lt.free[:n-1]
		} else {
			e = &lockEntry{}
		}
		items[key.Item] = e
	}
	return e
}

// release drops t's lock on key and wakes waiters ("WakeUp waiting
// transactions" in Algorithms 2 and 3).
func (lt *LockTable) release(t *Tx, key LockKey) {
	lt.mu.Lock()
	items := lt.tab[key.Rel]
	e := items[key.Item]
	if e != nil && e.holder == t {
		e.holder = nil
		if e.waiters > 0 { // a waiter made the cond
			e.cond.Broadcast()
		} else {
			delete(items, key.Item)
			if e.cond == nil && len(lt.free) < maxFreeLockEntries {
				lt.free = append(lt.free, e)
			}
		}
	}
	lt.mu.Unlock()
}
