package index

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sias/internal/buffer"
	"sias/internal/simclock"
	"sias/internal/space"
)

// Outcomes of a relation's key-level reads and writes, the same under both
// engines.
var (
	// ErrNoRow is returned when no entry of a key resolves to a version
	// visible to the transaction.
	ErrNoRow = errors.New("no visible row for key")
	// ErrStale is what a caller's callback returns for a version whose key
	// is no longer the entry's: SIAS <key, VID> entries outlive key changes
	// (Section 4.3), so the relation passes over it to the key's next entry.
	// An SI entry names the one version whose key it carries, so SI never
	// hands its callbacks such a version.
	ErrStale = errors.New("stale index entry")
)

// SecondaryKey derives a secondary index key from a payload; ok=false means
// "do not index this row".
type SecondaryKey func(payload []byte) (int64, bool)

// Secondary is one slot of a Set's secondary indexes; Tree is nil once the
// index is dropped.
type Secondary struct {
	Tree *Tree
	Key  SecondaryKey
}

// Set is one relation's indexes: the primary tree and the secondary trees
// with their key functions. Both engines keep one; only the payload their
// entries carry differs (a VID under SIAS, a TID under SI). The secondary
// slice is copy-on-write: AddSecondary and DropSecondary publish a new one,
// so a reader or writer holding a snapshot never sees it change.
type Set struct {
	PK *Tree

	pool  *buffer.Pool
	alloc *space.Allocator

	mu      sync.Mutex // serializes AddSecondary and DropSecondary
	secs    atomic.Pointer[[]Secondary]
	lookups atomic.Int64 // secondary-index point and range lookups
}

// NewSet creates a set holding an empty primary index on relation pkRelID.
func NewSet(at simclock.Time, pkRelID uint32, pool *buffer.Pool, alloc *space.Allocator) (*Set, simclock.Time, error) {
	pk, t, err := New(at, pkRelID, pool, alloc)
	if err != nil {
		return nil, t, err
	}
	return &Set{PK: pk, pool: pool, alloc: alloc}, t, nil
}

// Secondaries returns the current secondary slots; the slice is read-only.
func (s *Set) Secondaries() []Secondary {
	if p := s.secs.Load(); p != nil {
		return *p
	}
	return nil
}

// AddSecondary attaches a secondary index on relation relID at the next
// position.
func (s *Set) AddSecondary(at simclock.Time, relID uint32, fn SecondaryKey) (simclock.Time, error) {
	tree, t, err := New(at, relID, s.pool, s.alloc)
	if err != nil {
		return t, err
	}
	s.mu.Lock()
	old := s.Secondaries()
	secs := append(old[:len(old):len(old)], Secondary{Tree: tree, Key: fn})
	s.secs.Store(&secs)
	s.mu.Unlock()
	return t, nil
}

// DropSecondary detaches secondary index idx. The slot stays, with a nil
// tree, so the other indexes keep their positions; the tree's pages are
// abandoned, not reclaimed.
func (s *Set) DropSecondary(idx int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.Slot(idx); err != nil {
		return err
	}
	secs := append([]Secondary(nil), s.Secondaries()...)
	secs[idx] = Secondary{}
	s.secs.Store(&secs)
	return nil
}

// Slot returns secondary index idx, or an error if no live index is there.
func (s *Set) Slot(idx int) (Secondary, error) {
	secs := s.Secondaries()
	if idx < 0 || idx >= len(secs) || secs[idx].Tree == nil {
		return Secondary{}, fmt.Errorf("index: no secondary index %d", idx)
	}
	return secs[idx], nil
}

// Probe returns secondary index idx's tree for one lookup, and counts it.
func (s *Set) Probe(idx int) (*Tree, error) {
	sec, err := s.Slot(idx)
	if err != nil {
		return nil, err
	}
	s.lookups.Add(1)
	return sec.Tree, nil
}

// Lookups reports the lookups made through Probe.
func (s *Set) Lookups() int64 { return s.lookups.Load() }

// SecondaryPageWrites reports how many pages secondary index idx has
// dirtied (0 when idx is out of range or dropped) — the Section 6 claim that
// a non-key update writes no index page is asserted against this.
func (s *Set) SecondaryPageWrites(idx int) int64 {
	sec, err := s.Slot(idx)
	if err != nil {
		return 0
	}
	return sec.Tree.PageWrites()
}

// Counts are a Set's figures for a stats report.
type Counts struct {
	PKEntries   int64 // >= live rows: stale and dead entries linger until maintenance
	Secondaries int64 // live (non-dropped) secondary indexes
	Entries     int64 // entries across them
	Inserts     int64 // cumulative inserts into them, rebuilds included
	Lookups     int64 // lookups through Probe
}

// Counts reports the set's figures.
func (s *Set) Counts() Counts {
	c := Counts{PKEntries: s.PK.Len(), Lookups: s.Lookups()}
	for _, sec := range s.Secondaries() {
		if sec.Tree != nil {
			c.Secondaries++
			c.Entries += sec.Tree.Len()
			c.Inserts += sec.Tree.Inserts()
		}
	}
	return c
}
