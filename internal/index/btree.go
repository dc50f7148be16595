// Package index implements a B+ tree whose pages live in the buffer manager,
// used as the ordered access path of both engines.
//
// Per Section 4.3 of the paper, the only difference between the engines'
// indexes is the record payload: the SI baseline stores <key, TID> pairs and
// must insert a new index record for every new tuple version, while SIAS
// stores <key, VID> pairs mediated by the VIDmap, so updates that do not
// change the key never touch the index. Both cases are 8-byte payloads here,
// so one tree serves both (the payload is opaque to the tree).
//
// Duplicate keys are allowed; entries are ordered by (key, payload) so every
// entry is unique and deletable. Leaves are chained for range scans. Deletes
// are lazy (no rebalancing), as in many production trees.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sias/internal/buffer"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/space"
)

// Node layout inside a page's tuple area (we bypass the slot machinery and
// use the fixed region after the page header):
//
//	off  size  field
//	24   1     node type (0 leaf, 1 internal)
//	25   2     entry count
//	27   4     leaf: right-sibling block (+1; 0 = none) / internal: leftmost child
//	31   ...   entries
//
// Leaf entry:     key int64 | payload uint64            (16 bytes)
// Internal entry: key int64 | child uint32              (12 bytes); child
// subtree holds entries >= key (the leftmost child holds entries < entry 0).
const (
	nodeHdrOff  = page.HeaderSize
	entriesOff  = nodeHdrOff + 7
	leafEntSize = 16
	intEntSize  = 12

	leafCap = (page.Size - entriesOff) / leafEntSize
	intCap  = (page.Size - entriesOff) / intEntSize
)

// ErrNotFound is returned by Delete when the (key, payload) entry is absent.
var ErrNotFound = errors.New("index: entry not found")

type node struct {
	p page.Page
}

func (n node) isLeaf() bool { return n.p[nodeHdrOff] == 0 }
func (n node) setLeaf(leaf bool) {
	if leaf {
		n.p[nodeHdrOff] = 0
	} else {
		n.p[nodeHdrOff] = 1
	}
}
func (n node) count() int     { return int(binary.LittleEndian.Uint16(n.p[nodeHdrOff+1:])) }
func (n node) setCount(c int) { binary.LittleEndian.PutUint16(n.p[nodeHdrOff+1:], uint16(c)) }
func (n node) aux() uint32    { return binary.LittleEndian.Uint32(n.p[nodeHdrOff+3:]) }
func (n node) setAux(v uint32) {
	binary.LittleEndian.PutUint32(n.p[nodeHdrOff+3:], v)
}

func (n node) leafKey(i int) int64 {
	return int64(binary.LittleEndian.Uint64(n.p[entriesOff+i*leafEntSize:]))
}
func (n node) leafVal(i int) uint64 {
	return binary.LittleEndian.Uint64(n.p[entriesOff+i*leafEntSize+8:])
}
func (n node) setLeafEnt(i int, k int64, v uint64) {
	binary.LittleEndian.PutUint64(n.p[entriesOff+i*leafEntSize:], uint64(k))
	binary.LittleEndian.PutUint64(n.p[entriesOff+i*leafEntSize+8:], v)
}
func (n node) intKey(i int) int64 {
	return int64(binary.LittleEndian.Uint64(n.p[entriesOff+i*intEntSize:]))
}
func (n node) intChild(i int) uint32 {
	return binary.LittleEndian.Uint32(n.p[entriesOff+i*intEntSize+8:])
}
func (n node) setIntEnt(i int, k int64, c uint32) {
	binary.LittleEndian.PutUint64(n.p[entriesOff+i*intEntSize:], uint64(k))
	binary.LittleEndian.PutUint32(n.p[entriesOff+i*intEntSize+8:], c)
}

// moveLeaf copies entries [from,count) right by one inside a leaf.
func (n node) insertLeafAt(i int, k int64, v uint64) {
	c := n.count()
	copy(n.p[entriesOff+(i+1)*leafEntSize:entriesOff+(c+1)*leafEntSize],
		n.p[entriesOff+i*leafEntSize:entriesOff+c*leafEntSize])
	n.setLeafEnt(i, k, v)
	n.setCount(c + 1)
}

func (n node) removeLeafAt(i int) {
	c := n.count()
	copy(n.p[entriesOff+i*leafEntSize:entriesOff+(c-1)*leafEntSize],
		n.p[entriesOff+(i+1)*leafEntSize:entriesOff+c*leafEntSize])
	n.setCount(c - 1)
}

func (n node) insertIntAt(i int, k int64, child uint32) {
	c := n.count()
	copy(n.p[entriesOff+(i+1)*intEntSize:entriesOff+(c+1)*intEntSize],
		n.p[entriesOff+i*intEntSize:entriesOff+c*intEntSize])
	n.setIntEnt(i, k, child)
	n.setCount(c + 1)
}

// Tree is a B+ tree stored in its own relation id within the shared space
// allocator and buffer pool. The root is always block 0.
//
// Concurrency: a tree-level reader/writer lock. Searches and range scans
// run concurrently under the shared lock (pinning node pages as they go);
// Insert/Delete take it exclusively. Node page content needs no frame
// latches on top: the tree lock excludes writers from readers, and the
// buffer pool's write-back paths never touch pinned frames.
type Tree struct {
	relID uint32
	pool  *buffer.Pool
	alloc *space.Allocator

	mu        sync.RWMutex
	nextBlock uint32
	height    int
	entries   int64

	pageWrites atomic.Int64
	inserts    atomic.Int64
}

// release returns a frame to the pool, counting dirty releases so callers
// can observe how many index pages an operation wrote. The paper's Section 6
// claim — a non-key update never touches the index — is asserted against
// this counter.
func (t *Tree) release(f *buffer.Frame, dirty bool) {
	if dirty {
		t.pageWrites.Add(1)
	}
	t.pool.Release(f, dirty)
}

// PageWrites reports the cumulative number of index pages this tree has
// dirtied since creation (structure writes included).
func (t *Tree) PageWrites() int64 { return t.pageWrites.Load() }

// Inserts reports the cumulative number of successful Insert calls over the
// tree's lifetime (rebuild inserts included); unlike Len it never decreases.
func (t *Tree) Inserts() int64 { return t.inserts.Load() }

// New creates an empty tree (root = empty leaf at block 0).
func New(at simclock.Time, relID uint32, pool *buffer.Pool, alloc *space.Allocator) (*Tree, simclock.Time, error) {
	t := &Tree{relID: relID, pool: pool, alloc: alloc, nextBlock: 1, height: 1}
	f, tm, err := t.getBlock(at, 0, true)
	if err != nil {
		return nil, tm, err
	}
	n := node{f.Data}
	n.setLeaf(true)
	n.setCount(0)
	n.setAux(0)
	t.release(f, true)
	return t, tm, nil
}

// RelID reports the relation id holding the tree's pages.
func (t *Tree) RelID() uint32 { return t.relID }

// Len reports the number of entries.
func (t *Tree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// Height reports the tree height in levels.
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

func (t *Tree) getBlock(at simclock.Time, block uint32, init bool) (*buffer.Frame, simclock.Time, error) {
	dev, err := t.alloc.DevicePage(t.relID, block)
	if err != nil {
		return nil, at, err
	}
	f, tm, err := t.pool.Get(at, dev, init)
	if err != nil {
		return nil, tm, err
	}
	if init {
		f.Data.Init(t.relID, 0)
	}
	return f, tm, nil
}

func (t *Tree) allocBlock() uint32 {
	b := t.nextBlock
	t.nextBlock++
	return b
}

// lowerBoundLeaf finds the first leaf index i with (key,val) >= (k,v).
func lowerBoundLeaf(n node, k int64, v uint64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		mk, mv := n.leafKey(mid), n.leafVal(mid)
		if mk < k || (mk == k && mv < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks the child to descend into for key k (with payload v as
// tiebreak; internal separator keys carry payload implicitly via ordering —
// we separate on key only, duplicates may span children so searches scan
// right through sibling leaves).
func childIndex(n node, k int64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.intKey(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // number of separators <= k; 0 => leftmost child
}

func childBlock(n node, idx int) uint32 {
	if idx == 0 {
		return n.aux()
	}
	return n.intChild(idx - 1)
}

// Insert adds (key, payload).
func (t *Tree) Insert(at simclock.Time, key int64, payload uint64) (simclock.Time, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(at, key, payload)
}

// Add inserts (key, payload) unless the tree already holds that exact entry,
// and reports whether it did. SIAS indexes are sets of <key, VID> pairs that
// updates never remove: a row that leaves a key and later re-enters it, a
// replayed record, and an index backfill racing the writers it indexes must
// all leave one entry, not one per arrival. Probe and insert share one hold
// of the tree lock, so two concurrent Adds of the same entry cannot both
// miss.
func (t *Tree) Add(at simclock.Time, key int64, payload uint64) (added bool, _ simclock.Time, _ error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	found := false
	tm, err := t.rangeLocked(at, key, key, func(_ int64, v uint64) bool {
		found = v == payload
		return !found
	})
	if err != nil || found {
		return false, tm, err
	}
	tm, err = t.insertLocked(tm, key, payload)
	return err == nil, tm, err
}

func (t *Tree) insertLocked(at simclock.Time, key int64, payload uint64) (simclock.Time, error) {
	promoKey, promoChild, split, tm, err := t.insertRec(at, 0, t.height, key, payload)
	if err != nil {
		return tm, err
	}
	if split {
		// Root split: move root contents to a new block, reinit block 0 as
		// an internal node over [moved, promoChild].
		moved := t.allocBlock()
		rf, tm2, err := t.getBlock(tm, 0, false)
		if err != nil {
			return tm2, err
		}
		mf, tm3, err := t.getBlock(tm2, moved, true)
		if err != nil {
			t.release(rf, false)
			return tm3, err
		}
		copy(mf.Data, rf.Data)
		root := node{rf.Data}
		rf.Data.Init(t.relID, 0)
		root.setLeaf(false)
		root.setCount(0)
		root.setAux(moved)
		root.insertIntAt(0, promoKey, promoChild)
		t.release(mf, true)
		t.release(rf, true)
		t.height++
		tm = tm3
	}
	t.entries++
	t.inserts.Add(1)
	return tm, nil
}

// insertRec descends from block at the given level (level==1 means leaf).
// On child split it returns the separator key and new right sibling block.
func (t *Tree) insertRec(at simclock.Time, block uint32, level int, key int64, payload uint64) (int64, uint32, bool, simclock.Time, error) {
	f, tm, err := t.getBlock(at, block, false)
	if err != nil {
		return 0, 0, false, tm, err
	}
	n := node{f.Data}
	if level == 1 {
		if !n.isLeaf() {
			t.release(f, false)
			return 0, 0, false, tm, fmt.Errorf("index: block %d: expected leaf", block)
		}
		i := lowerBoundLeaf(n, key, payload)
		n.insertLeafAt(i, key, payload)
		if n.count() < leafCap {
			t.release(f, true)
			return 0, 0, false, tm, nil
		}
		// Split leaf: right half moves to a new block.
		right := t.allocBlock()
		rf, tm2, err := t.getBlock(tm, right, true)
		if err != nil {
			t.release(f, false)
			return 0, 0, false, tm2, err
		}
		rn := node{rf.Data}
		rn.setLeaf(true)
		half := n.count() / 2
		moveN := n.count() - half
		copy(rf.Data[entriesOff:entriesOff+moveN*leafEntSize],
			f.Data[entriesOff+half*leafEntSize:entriesOff+n.count()*leafEntSize])
		rn.setCount(moveN)
		rn.setAux(n.aux()) // inherit right sibling
		n.setCount(half)
		n.setAux(right + 1) // sibling link is block+1 (0 = none)
		sep := rn.leafKey(0)
		t.release(rf, true)
		t.release(f, true)
		return sep, right, true, tm2, nil
	}
	// Internal node.
	ci := childIndex(n, key)
	child := childBlock(n, ci)
	t.release(f, false)
	pk, pc, split, tm2, err := t.insertRec(tm, child, level-1, key, payload)
	if err != nil || !split {
		return 0, 0, false, tm2, err
	}
	f, tm3, err := t.getBlock(tm2, block, false)
	if err != nil {
		return 0, 0, false, tm3, err
	}
	n = node{f.Data}
	i := childIndex(n, pk)
	n.insertIntAt(i, pk, pc)
	if n.count() < intCap {
		t.release(f, true)
		return 0, 0, false, tm3, nil
	}
	// Split internal node.
	right := t.allocBlock()
	rf, tm4, err := t.getBlock(tm3, right, true)
	if err != nil {
		t.release(f, false)
		return 0, 0, false, tm4, err
	}
	rn := node{rf.Data}
	rn.setLeaf(false)
	half := n.count() / 2
	sep := n.intKey(half)
	rn.setAux(n.intChild(half)) // middle entry's child becomes leftmost
	moveN := n.count() - half - 1
	copy(rf.Data[entriesOff:entriesOff+moveN*intEntSize],
		f.Data[entriesOff+(half+1)*intEntSize:entriesOff+n.count()*intEntSize])
	rn.setCount(moveN)
	n.setCount(half)
	t.release(rf, true)
	t.release(f, true)
	return sep, right, true, tm4, nil
}

// descendToLeaf finds the leaf block that may contain (key, minimal payload).
func (t *Tree) descendToLeaf(at simclock.Time, key int64) (uint32, simclock.Time, error) {
	block := uint32(0)
	for level := t.height; level > 1; level-- {
		f, tm, err := t.getBlock(at, block, false)
		if err != nil {
			return 0, tm, err
		}
		n := node{f.Data}
		// Descend left of any separator > key, but because duplicates split
		// on key only, equal keys may start in the child left of an equal
		// separator: use first separator > key-1 semantics via (key, 0).
		lo, hi := 0, n.count()
		for lo < hi {
			mid := (lo + hi) / 2
			if n.intKey(mid) <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// Back up one child if the separator equals key, so we start at the
		// first possible duplicate.
		for lo > 0 && n.intKey(lo-1) == key {
			lo--
		}
		block = childBlock(n, lo)
		t.release(f, false)
		at = tm
	}
	return block, at, nil
}

// SearchAppend appends every payload stored under key, in payload order,
// to dst: a point lookup that passes a buffer of its own allocates nothing
// while the key has at most cap(dst) entries.
func (t *Tree) SearchAppend(at simclock.Time, key int64, dst []uint64) ([]uint64, simclock.Time, error) {
	tm, err := t.Range(at, key, key, func(_ int64, v uint64) bool {
		dst = append(dst, v)
		return true
	})
	return dst, tm, err
}

// Range invokes fn for every entry with lo <= key <= hi in ascending order;
// fn returning false stops the scan. Concurrent Ranges share the tree lock.
func (t *Tree) Range(at simclock.Time, lo, hi int64, fn func(key int64, payload uint64) bool) (simclock.Time, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rangeLocked(at, lo, hi, fn)
}

func (t *Tree) rangeLocked(at simclock.Time, lo, hi int64, fn func(key int64, payload uint64) bool) (simclock.Time, error) {
	block, tm, err := t.descendToLeaf(at, lo)
	if err != nil {
		return tm, err
	}
	for {
		f, tm2, err := t.getBlock(tm, block, false)
		if err != nil {
			return tm2, err
		}
		n := node{f.Data}
		i := lowerBoundLeaf(n, lo, 0)
		for ; i < n.count(); i++ {
			k := n.leafKey(i)
			if k > hi {
				t.release(f, false)
				return tm2, nil
			}
			if !fn(k, n.leafVal(i)) {
				t.release(f, false)
				return tm2, nil
			}
		}
		next := n.aux()
		t.release(f, false)
		tm = tm2
		if next == 0 {
			return tm, nil
		}
		block = next - 1
		// After the first leaf, scan siblings from index 0.
		lo = -1 << 63
	}
}

// Delete removes the exact (key, payload) entry.
func (t *Tree) Delete(at simclock.Time, key int64, payload uint64) (simclock.Time, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	block, tm, err := t.descendToLeaf(at, key)
	if err != nil {
		return tm, err
	}
	for {
		f, tm2, err := t.getBlock(tm, block, false)
		if err != nil {
			return tm2, err
		}
		n := node{f.Data}
		i := lowerBoundLeaf(n, key, payload)
		if i < n.count() && n.leafKey(i) == key && n.leafVal(i) == payload {
			n.removeLeafAt(i)
			t.release(f, true)
			t.entries--
			return tm2, nil
		}
		// Duplicates may continue in the right sibling.
		if i < n.count() || n.aux() == 0 {
			t.release(f, false)
			return tm2, ErrNotFound
		}
		next := n.aux() - 1
		t.release(f, false)
		block, tm = next, tm2
	}
}
