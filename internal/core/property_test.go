package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/txn"
)

// TestChainInvariantsProperty drives random committed/aborted operations and
// then validates the structural invariants of every chain:
//
//  1. creation timestamps strictly decrease along *ptr (newest first);
//  2. every version on a chain carries the chain's VID;
//  3. the VIDmap entrypoint is the version with the greatest committed
//     creation timestamp;
//  4. chains terminate (no cycles) within the number of versions written.
func TestChainInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		e := newEnv(t)
		rng := rand.New(rand.NewSource(seed))
		at := simclock.Time(0)
		const items = 12
		vids := make([]uint64, 0, items)
		versions := 0

		for step := 0; step < 250; step++ {
			switch op := rng.Intn(10); {
			case op < 3 && len(vids) < items: // insert
				tx := e.txm.Begin()
				vid, a, err := e.rel.Insert(tx, at, int64(len(vids)), payload("v"))
				at = a
				if err != nil {
					return false
				}
				versions++
				if rng.Intn(5) == 0 {
					e.txm.Abort(tx)
					versions--
					// vid slot stays clear; do not track it
				} else {
					e.txm.Commit(tx)
					vids = append(vids, vid)
				}
			case op < 8 && len(vids) > 0: // update (sometimes aborted)
				vid := vids[rng.Intn(len(vids))]
				tx := e.txm.Begin()
				a, err := e.rel.updateVID(tx, at, vid, 0, func(uint64, page.TID, []byte) ([]byte, int64, error) {
					return payload("u"), 0, nil
				})
				at = a
				if err != nil {
					e.txm.Abort(tx)
					continue
				}
				versions++
				if rng.Intn(4) == 0 {
					e.txm.Abort(tx)
				} else {
					e.txm.Commit(tx)
				}
			case len(vids) > 0: // occasional GC
				_, a, err := e.rel.GC(at, e.txm.Horizon())
				at = a
				if err != nil {
					return false
				}
			}
		}

		// Validate invariants on every tracked chain.
		clog := e.txm.CLOG()
		for _, vid := range vids {
			tid, ok := e.rel.vmap.Get(vid)
			if !ok {
				return false // committed insert lost its entrypoint
			}
			prev := txn.ID(1 << 62)
			hops := 0
			entry := true
			for tid.Valid() {
				hdr, _, a, err := e.rel.fetch(at, tid)
				at = a
				if err != nil {
					return false
				}
				if hdr.VID != vid {
					return false // invariant 2
				}
				if hdr.Create >= prev {
					return false // invariant 1
				}
				if entry && clog.Get(hdr.Create) != txn.StatusCommitted {
					return false // invariant 3: entrypoint must be committed
				}
				entry = false
				prev = hdr.Create
				tid = hdr.Pred
				hops++
				if hops > versions+1 {
					return false // invariant 4: cycle
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestVisibilityFollowsSnapshotOrderProperty: for any pair of committed
// updates, a snapshot taken between them sees exactly the earlier one.
func TestVisibilityFollowsSnapshotOrderProperty(t *testing.T) {
	f := func(nUpdates uint8) bool {
		n := int(nUpdates%20) + 1
		e := newEnv(t)
		setup := e.txm.Begin()
		vid, at, err := e.rel.Insert(setup, 0, 1, payload("g0"))
		if err != nil {
			return false
		}
		e.txm.Commit(setup)
		snaps := []*txn.Tx{e.txm.Begin()}
		for i := 1; i <= n; i++ {
			tx := e.txm.Begin()
			gen := i
			at, err = e.rel.updateVID(tx, at, vid, 1, func(uint64, page.TID, []byte) ([]byte, int64, error) {
				return payload(string(rune('g')) + string(rune('0'+gen%10))), 1, nil
			})
			if err != nil {
				return false
			}
			e.txm.Commit(tx)
			snaps = append(snaps, e.txm.Begin())
		}
		ok := true
		for i, snap := range snaps {
			got, _, err := e.rel.getVID(snap, at, vid)
			if err != nil {
				ok = false
				break
			}
			want := string(rune('g')) + string(rune('0'+i%10))
			if string(got) != want {
				ok = false
				break
			}
		}
		for _, s := range snaps {
			e.txm.Commit(s)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

var _ = page.InvalidTID
