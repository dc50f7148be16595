// Package vidmap implements the paper's VIDmap (Sections 4.1.2 and 4.1.3):
// the per-relation mapping from a data item's virtual ID (VID) to the TID of
// its newest tuple version, the chain *entrypoint*.
//
// The structure follows the paper's prototype configuration:
//
//   - VIDs are sequentially assigned positive integers;
//   - TIDs are 6 bytes (32-bit block + 16-bit offset);
//   - buckets have page size; we store 1024 TIDs per 8 KB bucket;
//   - bucket number = ⌊VID/1024⌋, position = VID mod 1024;
//   - there are no overflow buckets — every VID has exactly one slot;
//   - slot updates use atomic CAS instead of latches, which the paper notes
//     is possible because the hash-table variant does not algorithmically
//     require latching.
//
// Entries pack a TID into a uint64 with a presence bit, so reads and
// conditional updates are single atomic operations. A Residency tracker
// simulates the paper's swap-to-disk behaviour for maps larger than memory.
package vidmap

import (
	"sync"
	"sync/atomic"

	"sias/internal/page"
)

// BucketCapacity is the number of TIDs stored per bucket, per the paper's
// prototype ("we store a maximum of 1024 TIDs per page").
const BucketCapacity = 1024

const presentBit = uint64(1) << 63

// pack encodes a TID with the presence bit set.
func pack(t page.TID) uint64 {
	return presentBit | uint64(t.Block)<<16 | uint64(t.Slot)
}

// unpack decodes a packed entry; ok is false for empty slots.
func unpack(v uint64) (page.TID, bool) {
	if v&presentBit == 0 {
		return page.InvalidTID, false
	}
	return page.TID{Block: uint32(v >> 16), Slot: uint16(v)}, true
}

type bucket struct {
	slots [BucketCapacity]atomic.Uint64
}

// Map is one relation's VIDmap. There exists exactly one per relation and it
// serves all access paths.
type Map struct {
	mu      sync.RWMutex
	buckets []*bucket
	nextVID atomic.Uint64
}

// New returns an empty VIDmap whose first allocated VID is 0.
func New() *Map { return &Map{} }

// BucketOf returns the bucket number holding vid (the paper's DIV).
func BucketOf(vid uint64) uint64 { return vid / BucketCapacity }

// SlotOf returns the in-bucket position of vid (the paper's MOD).
func SlotOf(vid uint64) uint64 { return vid % BucketCapacity }

// AllocVID assigns the next sequential VID. Buckets fill sequentially as a
// consequence, enabling the exact-position calculation.
func (m *Map) AllocVID() uint64 { return m.nextVID.Add(1) - 1 }

// MaxVID reports the upper bound of assigned VIDs (exclusive).
func (m *Map) MaxVID() uint64 { return m.nextVID.Load() }

// bucketFor returns the bucket for vid, growing the directory as needed.
func (m *Map) bucketFor(vid uint64, create bool) *bucket {
	bn := int(BucketOf(vid))
	m.mu.RLock()
	if bn < len(m.buckets) {
		b := m.buckets[bn]
		m.mu.RUnlock()
		return b
	}
	m.mu.RUnlock()
	if !create {
		return nil
	}
	m.mu.Lock()
	for bn >= len(m.buckets) {
		m.buckets = append(m.buckets, &bucket{})
	}
	b := m.buckets[bn]
	m.mu.Unlock()
	return b
}

// Get returns the entrypoint TID for vid. ok is false for never-set or
// cleared entries (e.g. rolled-back inserts).
func (m *Map) Get(vid uint64) (page.TID, bool) {
	b := m.bucketFor(vid, false)
	if b == nil {
		return page.InvalidTID, false
	}
	return unpack(b.slots[SlotOf(vid)].Load())
}

// Set unconditionally points vid at tid. Cost per the paper: position
// calculation plus one slot write (2×C_R with the buffer access).
func (m *Map) Set(vid uint64, tid page.TID) {
	m.bucketFor(vid, true).slots[SlotOf(vid)].Store(pack(tid))
}

// CompareAndSwap atomically replaces the entry for vid with new if it still
// equals old. Used to roll back an entrypoint after an aborted update
// without clobbering a later committed one.
func (m *Map) CompareAndSwap(vid uint64, old, new page.TID) bool {
	b := m.bucketFor(vid, true)
	return b.slots[SlotOf(vid)].CompareAndSwap(pack(old), pack(new))
}

// Clear removes the entry for vid if it still equals old (rolled-back
// insert). Reports whether it cleared.
func (m *Map) Clear(vid uint64, old page.TID) bool {
	b := m.bucketFor(vid, false)
	if b == nil {
		return false
	}
	return b.slots[SlotOf(vid)].CompareAndSwap(pack(old), 0)
}

// Range iterates entries in ascending VID order (supporting the paper's
// VID-range queries) and stops early if fn returns false.
func (m *Map) Range(fn func(vid uint64, tid page.TID) bool) {
	max := m.MaxVID()
	for vid := uint64(0); vid < max; vid++ {
		b := m.bucketFor(vid, false)
		if b == nil {
			// Whole bucket missing: skip to its end.
			vid = (BucketOf(vid)+1)*BucketCapacity - 1
			continue
		}
		if tid, ok := unpack(b.slots[SlotOf(vid)].Load()); ok {
			if !fn(vid, tid) {
				return
			}
		}
	}
}

// Len counts present entries (O(n); diagnostic use).
func (m *Map) Len() int {
	n := 0
	m.Range(func(uint64, page.TID) bool { n++; return true })
	return n
}

// Buckets reports the number of allocated buckets.
func (m *Map) Buckets() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.buckets)
}

// SetNextVID fast-forwards the VID allocator; used when rebuilding the map
// from a relation scan after recovery.
func (m *Map) SetNextVID(v uint64) {
	for {
		cur := m.nextVID.Load()
		if cur >= v || m.nextVID.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Residency simulates the paper's swap-to-disk behaviour: on large databases
// the VIDmap "may not fit completely into main memory and therefore parts of
// it need to be swapped to disk". It tracks an LRU set of resident buckets;
// Touch reports whether the access hit memory — a miss costs the caller one
// device page read in virtual time.
// Touch is on the concurrent read path (every chain lookup), so the critical
// section must be O(1): an intrusive doubly-linked list keeps LRU order and
// a map gives direct node access, replacing the old linear shuffle.
type Residency struct {
	mu       sync.Mutex
	capacity int
	nodes    map[uint64]*resNode
	head     *resNode // most recently used
	tail     *resNode // coldest, next to evict
	hits     atomic.Int64
	misses   atomic.Int64
}

type resNode struct {
	bn         uint64
	prev, next *resNode
}

// NewResidency returns a tracker keeping at most capacity buckets resident;
// capacity <= 0 means everything stays resident (no misses).
func NewResidency(capacity int) *Residency {
	return &Residency{capacity: capacity, nodes: map[uint64]*resNode{}}
}

// Touch records an access to bucket bn and reports true on residency hit.
func (r *Residency) Touch(bn uint64) bool {
	if r == nil || r.capacity <= 0 {
		return true
	}
	r.mu.Lock()
	if n, ok := r.nodes[bn]; ok {
		r.moveToFront(n)
		r.mu.Unlock()
		r.hits.Add(1)
		return true
	}
	if len(r.nodes) >= r.capacity {
		evict := r.tail
		r.unlink(evict)
		delete(r.nodes, evict.bn)
	}
	n := &resNode{bn: bn}
	r.nodes[bn] = n
	r.pushFront(n)
	r.mu.Unlock()
	r.misses.Add(1)
	return false
}

// unlink removes n from the LRU list. Caller holds r.mu.
func (r *Residency) unlink(n *resNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		r.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		r.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront makes n the most recently used. Caller holds r.mu.
func (r *Residency) pushFront(n *resNode) {
	n.next = r.head
	if r.head != nil {
		r.head.prev = n
	}
	r.head = n
	if r.tail == nil {
		r.tail = n
	}
}

func (r *Residency) moveToFront(n *resNode) {
	if r.head == n {
		return
	}
	r.unlink(n)
	r.pushFront(n)
}

// Stats reports hit/miss counts.
func (r *Residency) Stats() (hits, misses int64) {
	if r == nil {
		return 0, 0
	}
	return r.hits.Load(), r.misses.Load()
}
