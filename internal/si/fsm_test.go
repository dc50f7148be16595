package si

import (
	"math/rand"
	"testing"
)

// scanFirstFit is the linear first-fit scan freeSpace.firstFit replaced,
// kept as its reference: the block found, whether one fits, and the hint
// as the scan leaves it.
func scanFirstFit(fsm []int, hint, nextBlock uint32, need int) (uint32, bool, uint32) {
	for cand := hint; int(cand) < len(fsm) && cand < nextBlock; cand++ {
		if fsm[cand] >= need {
			return cand, true, hint
		}
		if fsm[cand] >= 0 && fsm[cand] < 64 && cand == hint {
			hint = cand + 1
		}
	}
	return 0, false, hint
}

// TestFirstFitMatchesScan compares the segment tree's first fit and hint
// with the linear scan over random free-space maps, grown block by block
// and updated in place as placement and vacuum update them.
func TestFirstFitMatchesScan(t *testing.T) {
	seed := rand.Int63()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	free := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(64) // tight
		case 1:
			return 64 + rng.Intn(200)
		case 2:
			return 0
		default:
			return rng.Intn(8193)
		}
	}
	for round := 0; round < 200; round++ {
		var fs freeSpace
		var ref []int
		blocks := rng.Intn(600)
		for b := 0; b < blocks; b++ {
			v := free()
			fs.set(b, v)
			ref = append(ref, v)
		}
		for q := 0; q < 200; q++ {
			if len(ref) > 0 && rng.Intn(2) == 0 {
				b, v := rng.Intn(len(ref)), free()
				fs.set(b, v)
				ref[b] = v
			}
			if fs.n != len(ref) {
				t.Fatalf("%d blocks recorded, want %d", fs.n, len(ref))
			}
			hint := uint32(rng.Intn(len(ref) + 3))
			next := uint32(rng.Intn(len(ref) + 3))
			need := 20 + rng.Intn(600)
			b, ok, h := fs.firstFit(hint, next, need)
			wb, wok, wh := scanFirstFit(ref, hint, next, need)
			if b != wb || ok != wok || h != wh {
				t.Fatalf("round %d: firstFit(hint %d, next %d, need %d) over %d blocks = (%d, %v, hint %d), scan says (%d, %v, hint %d)",
					round, hint, next, need, len(ref), b, ok, h, wb, wok, wh)
			}
		}
	}
}
