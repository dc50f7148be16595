package core

import (
	"fmt"
	"slices"

	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// eachVersion calls fn for every tuple version on block while its page is
// pinned and latched. payload aliases the page: fn takes what it needs out of
// it and keeps no reference.
func (r *Relation) eachVersion(at simclock.Time, block uint32, fn func(tid page.TID, hdr tuple.SIASHeader, payload []byte)) (simclock.Time, error) {
	f, t, err := r.getPage(at, block, false)
	if err != nil {
		return t, err
	}
	f.RLock()
	f.Data.LiveTuples(func(slot int, raw []byte) bool {
		if hdr, payload, derr := tuple.DecodeSIAS(raw); derr == nil {
			fn(page.TID{Block: block, Slot: uint16(slot)}, hdr, payload)
		}
		return true
	})
	f.RUnlock()
	r.pool.Release(f, false)
	return t, nil
}

// rebuilt is one tuple version as RebuildFromHeap keeps it: integers only.
// The index keys are taken while the page is pinned, so no payload outlives
// its page and the rebuild's memory does not grow with the row size.
type rebuilt struct {
	tid, pred page.TID
	vid       uint64
	create    txn.ID
	key       int64 // primary key; unset on a tombstone
	tomb      bool
	undecided bool // creator neither committed nor aborted
}

// RebuildFromHeap reconstructs the relation's volatile state after WAL redo,
// per Section 6 of the paper: "all information that is required for a
// reconstruction is stored on each tuple version". One scan of the heap
// classifies every version by its creator — committed, aborted or undecided —
// and rebuilds
//
//   - the VIDmap: for each VID, the committed version with the greatest
//     creation timestamp becomes the entrypoint;
//   - the dead set: superseded committed versions and versions of aborted
//     transactions are garbage;
//   - the primary and secondary indexes, one entry per distinct <key, VID>
//     over every version that carries a payload and whose creator did not
//     abort. Superseded versions count: an update that changed an indexed
//     column left the old entry in place for transactions that still see old
//     versions (Figure 2), and AS OF tokens survive a restart;
//   - per-block tuple counts and the append high-water mark.
//
// An undecided creator is left exactly where ApplyInsert leaves one whose
// outcome record has not arrived: the entrypoint swung to its version, the
// write tracked under its id in chain order, nothing marked dead, its index
// entries present. ApplyFinish then resolves it either way — fed by the
// shipped outcome record on a follower, by the engine (as an abort) once a
// primary has read its whole log.
//
// blocks is the heap high-water mark observed during redo. keyOf recovers
// the primary key from a payload.
func (r *Relation) RebuildFromHeap(at simclock.Time, blocks uint32, keyOf func(payload []byte) int64) (simclock.Time, error) {
	clog := r.txm.CLOG()
	secs, secFns := r.secSnapshot()

	r.mu.Lock()
	r.nextBlock = blocks
	r.appendOpen = false
	r.mu.Unlock()

	var vers []rebuilt
	var secKeys []int64 // len(secs) per version, aligned with vers
	var secOK []bool
	var aborted []page.TID
	var maxVID uint64
	t := at
	for b := uint32(0); b < blocks; b++ {
		count := 0
		var err error
		t, err = r.eachVersion(t, b, func(tid page.TID, hdr tuple.SIASHeader, payload []byte) {
			count++
			if hdr.VID > maxVID {
				maxVID = hdr.VID
			}
			st := clog.Get(hdr.Create)
			if st == txn.StatusAborted {
				aborted = append(aborted, tid)
				return
			}
			v := rebuilt{tid: tid, pred: hdr.Pred, vid: hdr.VID, create: hdr.Create,
				tomb: hdr.Tombstone(), undecided: st != txn.StatusCommitted}
			if !v.tomb {
				v.key = keyOf(payload)
			}
			vers = append(vers, v)
			for i, sec := range secs {
				var k int64
				ok := false
				if sec != nil && !v.tomb {
					k, ok = secFns[i](payload)
				}
				secKeys, secOK = append(secKeys, k), append(secOK, ok)
			}
		})
		if err != nil {
			return t, err
		}
		if cap(vers) == len(vers) && len(vers) > 0 {
			// Blocks fill alike: size for the rest at the average so far,
			// rather than grow by copying as the heap is read.
			vers = slices.Grow(vers, len(vers)/int(b+1)*int(blocks-b-1))
		}
		r.mu.Lock()
		r.tupleCount[b] = count
		r.mu.Unlock()
	}
	r.mu.Lock()
	for _, tid := range aborted {
		r.markDeadLocked(tid)
	}
	r.mu.Unlock()
	if len(vers)+len(aborted) == 0 {
		return t, nil
	}
	r.vmap.SetNextVID(maxVID + 1)

	// Group the versions by VID. VIDs are dense (AllocVID counts up), so a
	// counting sort yields ascending VID order, heap order within one VID,
	// in O(n) — and the same VIDmap fill and tree insertion order on every
	// run, which ranging a map did not give.
	end := make([]int32, maxVID+1)
	for i := range vers {
		end[vers[i].vid]++
	}
	for v := 1; v < len(end); v++ {
		end[v] += end[v-1]
	}
	order := make([]int32, len(vers))
	for i := len(vers) - 1; i >= 0; i-- {
		v := vers[i].vid
		end[v]--
		order[end[v]] = int32(i)
	}
	// end[v] is now where VID v's group starts; it runs to end[v+1].

	lastSec, seenSec := make([]int64, len(secs)), make([]bool, len(secs))
	var newest, open []int32
	for vid := range end {
		hi := len(order)
		if vid+1 < len(end) {
			hi = int(end[vid+1])
		}
		group := order[end[vid]:hi]
		if len(group) == 0 {
			continue
		}

		// The entrypoint is the newest committed version: greatest Create,
		// and among versions sharing it the head of their chain.
		newest = newest[:0]
		for _, i := range group {
			switch v := &vers[i]; {
			case v.undecided:
			case len(newest) == 0 || v.create > vers[newest[0]].create:
				newest = append(newest[:0], i)
			case v.create == vers[newest[0]].create:
				newest = append(newest, i)
			}
		}
		win := int32(-1)
		var winCreate txn.ID
		if len(newest) > 0 {
			win = headOf(vers, newest)
			winCreate = vers[win].create
			r.vmap.Set(uint64(vid), vers[win].tid)
		}

		// Every other committed version is superseded; superseded versions
		// stay readable through the chain until GC reclaims them — that is
		// the AS OF retention limit. An undecided writer had to see the
		// entrypoint to write the item and holds the item lock until it
		// finishes, so what is undecided and newer than the entrypoint is one
		// transaction's chain; anything undecided and older was rolled back
		// by a recovery that logged no abort record for it, and is garbage.
		open = open[:0]
		r.mu.Lock()
		for _, i := range group {
			switch v := &vers[i]; {
			case i == win:
			case v.undecided && v.create > winCreate:
				open = append(open, i)
			default:
				r.markDeadLocked(v.tid)
			}
		}
		chainOrder(vers, open)
		for _, i := range open {
			v := &vers[i]
			r.vmap.Set(v.vid, v.tid)
			if r.replay == nil {
				r.replay = map[txn.ID][]replayOp{}
			}
			r.replay[v.create] = append(r.replay[v.create], replayOp{vid: v.vid, tid: v.tid, pred: v.pred})
		}
		r.mu.Unlock()

		// Index entries are a set per <key, VID>, and every version of the
		// VID is in this group. Consecutive versions mostly share their keys
		// (a non-key update changes none), so a key equal to the previous
		// version's is skipped without probing the tree; Add drops the rest.
		seenKey := false
		var lastKey int64
		clear(seenSec)
		for _, i := range group {
			v := &vers[i]
			if v.tomb {
				continue
			}
			var err error
			if !seenKey || v.key != lastKey {
				if _, t, err = r.pk.Add(t, v.key, v.vid); err != nil {
					return t, err
				}
				seenKey, lastKey = true, v.key
			}
			for j, sec := range secs {
				k, ok := secKeys[int(i)*len(secs)+j], secOK[int(i)*len(secs)+j]
				if !ok || (seenSec[j] && k == lastSec[j]) {
					continue
				}
				if _, t, err = sec.Add(t, k, v.vid); err != nil {
					return t, err
				}
				seenSec[j], lastSec[j] = true, k
			}
		}
	}
	return t, nil
}

// headOf picks the newest of idx, versions of one item that share a creator.
// A transaction that wrote the same item more than once left several versions
// with the same Create; the genuine newest is the one no sibling points back
// to through its Pred (chain order). GC relocation can have cleared the
// winner's back pointer — a relocated head whose dead original still sits
// unreclaimed on its page — in which case neither is referenced and the
// cleared pointer identifies the head.
func headOf(vers []rebuilt, idx []int32) int32 {
	head := idx[len(idx)-1]
	if len(idx) == 1 {
		return head
	}
	preds := make(map[page.TID]bool, len(idx))
	for _, i := range idx {
		if vers[i].pred.Valid() {
			preds[vers[i].pred] = true
		}
	}
	pick := int32(-1)
	for _, i := range idx {
		if preds[vers[i].tid] {
			continue
		}
		if pick < 0 || (vers[pick].pred.Valid() && !vers[i].pred.Valid()) {
			pick = i
		}
	}
	if pick >= 0 {
		head = pick
	}
	return head
}

// chainOrder sorts idx — versions of one item written by one transaction —
// oldest first, following their Pred pointers back from the head. That is
// the order ApplyInsert would have tracked them in, and the one ApplyFinish
// depends on to unwind an abort onto the pre-transaction version.
func chainOrder(vers []rebuilt, idx []int32) {
	if len(idx) < 2 {
		return
	}
	at := make(map[page.TID]int32, len(idx))
	for _, i := range idx {
		at[vers[i].tid] = i
	}
	cur, ok := headOf(vers, idx), true
	for n := len(idx) - 1; n >= 0 && ok; n-- {
		idx[n] = cur
		delete(at, vers[cur].tid)
		cur, ok = at[vers[cur].pred]
	}
}

// BackfillSecondary fills secondary index idx from the heap with the same
// entries RebuildFromHeap would give it, so a live primary, a follower that
// received the CREATE INDEX through the stream, and either of them restarted
// hold the same tree. Call it once the index is attached (AddSecondary):
// every writer that finds the tree attached indexes its own versions, the
// scan covers all that were appended before, and Add keeps a version both
// sides reach from getting two entries. GC is held off for the duration — it
// would move a version out of a block the scan has yet to read into one it
// has passed.
func (r *Relation) BackfillSecondary(at simclock.Time, idx int) (simclock.Time, error) {
	secs, secFns := r.secSnapshot()
	if idx < 0 || idx >= len(secs) || secs[idx] == nil {
		return at, fmt.Errorf("sias: no secondary index %d", idx)
	}
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	clog := r.txm.CLOG()
	blocks := r.Blocks()
	var ents []idxEnt
	t := at
	for b := uint32(0); b < blocks; b++ {
		ents = ents[:0]
		var err error
		t, err = r.eachVersion(t, b, func(_ page.TID, hdr tuple.SIASHeader, payload []byte) {
			if hdr.Tombstone() || clog.Get(hdr.Create) == txn.StatusAborted {
				return
			}
			if k, ok := secFns[idx](payload); ok {
				ents = append(ents, idxEnt{k, hdr.VID})
			}
		})
		if err != nil {
			return t, err
		}
		for _, e := range ents {
			if t, err = r.addEntry(t, secs[idx], e.key, e.vid); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}
