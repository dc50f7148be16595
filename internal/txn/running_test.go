package txn

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// snapshotModel is the brute-force reference for the manager's running
// list: a map of running ids with the concurrent set each one saw, and the
// pinned read-only xmaxes.
type snapshotModel struct {
	next    ID
	running map[ID][]ID
	pinned  []ID
}

// begin returns the concurrent set a transaction beginning now must see.
func (s *snapshotModel) begin() []ID {
	var conc []ID
	for id := range s.running {
		conc = append(conc, id)
	}
	slices.Sort(conc)
	s.running[s.next] = conc
	s.next++
	return conc
}

// horizon is the minimum over every running snapshot's xmin, every pin and
// the next id.
func (s *snapshotModel) horizon() ID {
	h := s.next
	for id, conc := range s.running {
		h = min(h, id)
		for _, c := range conc {
			h = min(h, c)
		}
	}
	for _, x := range s.pinned {
		h = min(h, x)
	}
	return h
}

// TestSnapshotsMatchModel runs seeded random interleavings of Begin,
// BeginReadOnlyAt, Commit and Abort, and after every step compares the new
// snapshot's concurrent set and Horizon with the brute-force model.
func TestSnapshotsMatchModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, time.Now().UnixNano()}
	for _, seed := range seeds {
		if err := runSnapshotModel(seed, 2000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runSnapshotModel(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	m := NewManager()
	model := &snapshotModel{next: 1, running: map[ID][]ID{}}
	var writers, readers []*Tx
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // Begin
			tx := m.Begin()
			want := model.begin()
			if tx.ID != model.next-1 {
				return fmt.Errorf("step %d: Begin gave id %d, want %d", step, tx.ID, model.next-1)
			}
			if !slices.Equal(tx.Snap.Concurrent, want) {
				return fmt.Errorf("step %d: tx %d sees %v running, want %v", step, tx.ID, tx.Snap.Concurrent, want)
			}
			writers = append(writers, tx)
		case op < 5: // BeginReadOnlyAt, at any xmax the allocator has reached
			xmax := ID(1 + rng.Int63n(int64(model.next)))
			readers = append(readers, m.BeginReadOnlyAt(xmax))
			model.pinned = append(model.pinned, xmax)
		case op < 9 && len(writers) > 0: // Commit or Abort a running writer
			i := rng.Intn(len(writers))
			tx := writers[i]
			writers = slices.Delete(writers, i, i+1)
			delete(model.running, tx.ID)
			if err := finishEither(m, tx, rng); err != nil {
				return fmt.Errorf("step %d: finishing tx %d: %v", step, tx.ID, err)
			}
		case len(readers) > 0: // finish a reader
			i := rng.Intn(len(readers))
			r := readers[i]
			readers = slices.Delete(readers, i, i+1)
			j := slices.Index(model.pinned, r.Snap.XMax)
			model.pinned = slices.Delete(model.pinned, j, j+1)
			if err := finishEither(m, r, rng); err != nil {
				return fmt.Errorf("step %d: finishing a reader at %d: %v", step, r.Snap.XMax, err)
			}
		}
		if got, want := m.Horizon(), model.horizon(); got != want {
			return fmt.Errorf("step %d: Horizon = %d, model says %d (%d running, %d pinned)",
				step, got, want, len(model.running), len(model.pinned))
		}
	}
	return nil
}

func finishEither(m *Manager, tx *Tx, rng *rand.Rand) error {
	if rng.Intn(2) == 0 {
		return m.Commit(tx)
	}
	return m.Abort(tx)
}

// TestSnapshotsConcurrent begins, reads and finishes transactions from
// several goroutines at once, each holding a few open: every snapshot must
// be sorted, duplicate-free and below its own id, and the horizon must never
// pass the xmin of a snapshot that is still running. Run it under -race.
func TestSnapshotsConcurrent(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []*Tx
			for i := 0; i < 500; i++ {
				if rng.Intn(8) == 0 {
					r := m.BeginReadOnlyAt(m.Horizon())
					if err := finishEither(m, r, rng); err != nil {
						t.Errorf("seed %d: finishing a reader: %v", seed, err)
						return
					}
				}
				tx := m.Begin()
				conc := tx.Snap.Concurrent
				for j, id := range conc {
					if id >= tx.ID || (j > 0 && id <= conc[j-1]) {
						t.Errorf("seed %d: tx %d has concurrent set %v", seed, tx.ID, conc)
						return
					}
				}
				held = append(held, tx)
				for _, h := range held {
					xmin := h.ID
					if len(h.Snap.Concurrent) > 0 {
						xmin = h.Snap.Concurrent[0]
					}
					if hz := m.Horizon(); hz > xmin {
						t.Errorf("seed %d: horizon %d passed running tx %d's xmin %d", seed, hz, h.ID, xmin)
						return
					}
				}
				if len(held) > 3 {
					k := rng.Intn(len(held))
					if err := finishEither(m, held[k], rng); err != nil {
						t.Errorf("seed %d: finishing tx %d: %v", seed, held[k].ID, err)
						return
					}
					held = slices.Delete(held, k, k+1)
				}
			}
			for _, h := range held {
				if err := m.Commit(h); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		}(time.Now().UnixNano() + int64(g))
	}
	wg.Wait()
	if h, next := m.Horizon(), m.NextID(); h != next {
		t.Errorf("horizon %d != next id %d with nothing running", h, next)
	}
}

// TestBeginTakesNoCLOGLock holds the CLOG's write lock and calls Begin and
// Horizon: neither may wait for it, so taking a snapshot never queues
// behind a commit's CLOG flip.
func TestBeginTakesNoCLOGLock(t *testing.T) {
	m := NewManager()
	held := m.Begin()
	m.clog.mu.Lock()
	done := make(chan ID, 1)
	go func() {
		tx := m.Begin()
		_ = m.Horizon()
		done <- tx.ID
	}()
	select {
	case id := <-done:
		m.clog.mu.Unlock()
		if id != held.ID+1 {
			t.Fatalf("Begin gave id %d, want %d", id, held.ID+1)
		}
	case <-time.After(time.Second):
		m.clog.mu.Unlock()
		<-done
		t.Fatal("Begin or Horizon waited for the CLOG's write lock")
	}
}

// TestBeginCommitAllocBudget pins Begin + Horizon + Commit at one
// allocation (the Tx) when nothing else runs, and two (plus the snapshot's
// concurrent set) when others do: the running list keeps its capacity.
func TestBeginCommitAllocBudget(t *testing.T) {
	m := NewManager()
	cycle := func() {
		tx := m.Begin()
		_ = m.Horizon()
		if err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		open int
		want float64
	}{{0, 1}, {3, 2}, {100, 2}} {
		var open []*Tx
		for i := 0; i < c.open; i++ {
			open = append(open, m.Begin())
		}
		cycle() // grow the running list to its size with one more
		if got := testing.AllocsPerRun(1000, cycle); got > c.want {
			t.Errorf("with %d open: Begin + Horizon + Commit allocates %v times, want ≤ %v", c.open, got, c.want)
		}
		for _, tx := range open {
			if err := m.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkBeginCommit referees snapshot taking: Begin + Horizon + Commit
// in parallel, with 0, 64 and 1,024 older transactions held open, so a
// snapshot copies that many running ids and the horizon is theirs.
func BenchmarkBeginCommit(b *testing.B) {
	for _, open := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("open=%d", open), func(b *testing.B) {
			m := NewManager()
			held := make([]*Tx, open)
			for i := range held {
				held[i] = m.Begin()
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tx := m.Begin()
					_ = m.Horizon()
					if err := m.Commit(tx); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			for _, tx := range held {
				m.Commit(tx)
			}
		})
	}
}
