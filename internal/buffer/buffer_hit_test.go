package buffer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
)

// TestHitTakesNoPartitionLock holds a page's partition mutex and Gets the
// page: a resident page, whether created or read in, must be handed out
// without that mutex.
func TestHitTakesNoPartitionLock(t *testing.T) {
	p, _ := newStripedPool(256, 4)
	at := simclock.Time(0)
	for _, c := range []struct {
		dp   int64
		init bool
	}{{7, true}, {9, false}} {
		f, t2, err := p.Get(at, c.dp, c.init)
		if err != nil {
			t.Fatal(err)
		}
		at = t2
		p.Release(f, false)
	}
	for _, dp := range []int64{7, 9} {
		pt := p.partOf(dp)
		before := p.Stats().Hits
		pt.mu.Lock()
		done := make(chan error, 1)
		go func() {
			f, _, err := p.Get(at, dp, false)
			if err == nil {
				p.Release(f, false)
			}
			done <- err
		}()
		select {
		case err := <-done:
			pt.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			pt.mu.Unlock()
			<-done
			t.Fatalf("a hit on resident page %d waited for its partition mutex", dp)
		}
		if got := p.Stats().Hits - before; got != 1 {
			t.Fatalf("hits after one Get of page %d = %d, want 1", dp, got)
		}
	}
}

// stamp writes dp into the last 8 bytes of a page, which neither the page
// header nor the pool's checksum touches.
func stamp(b []byte, dp int64) { binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(dp)) }

func stampOf(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b[len(b)-8:])) }

// TestHitPathStress runs the hit path against every way a frame changes
// page. The pool holds a sixteenth of the pages, each stamped on the device
// with its own number; workers Get a page (mostly from a working set twice
// the pool, so pages are hit and evicted in turn), latch it, check the
// stamp and release it — some rewriting it dirty — while the clock evicts,
// a prefetcher stages pages and a flusher writes back. A Get that pinned a
// frame mid-claim would read another page's stamp or a half-loaded one.
func TestHitPathStress(t *testing.T) {
	const (
		pages   = 1024
		frames  = 64
		workers = 4
		opsEach = 4000
		hot     = 2 * frames // resident about half the time
	)
	dev := device.NewMem(page.Size, pages)
	buf := make([]byte, page.Size)
	for dp := int64(0); dp < pages; dp++ {
		stamp(buf, dp)
		if _, err := dev.WritePage(0, dp, buf); err != nil {
			t.Fatal(err)
		}
	}
	p := New(Config{Frames: frames, Partitions: 2, HitCost: simclock.Microsecond}, dev)

	var stop atomic.Bool
	var workerWG, bgWG sync.WaitGroup
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(seed int64) {
			defer workerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			at := simclock.Time(0)
			for i := 0; i < opsEach; i++ {
				dp := rng.Int63n(hot)
				if i%8 == 0 {
					dp = rng.Int63n(pages)
				}
				f, t2, err := p.Get(at, dp, false)
				if err != nil {
					errs <- err
					return
				}
				at = t2
				dirty := i%7 == 0
				if dirty {
					f.Lock()
					stamp(f.Data, stampOf(f.Data))
				} else {
					f.RLock()
				}
				got, held := stampOf(f.Data), f.DevPage()
				if dirty {
					f.Unlock()
				} else {
					f.RUnlock()
				}
				p.Release(f, dirty)
				if got != dp || held != dp {
					errs <- fmt.Errorf("Get(%d) returned a frame holding page %d stamped %d", dp, held, got)
					return
				}
			}
		}(int64(w + 1))
	}
	bgWG.Add(2)
	go func() { // prefetcher: runs of consecutive cold pages
		defer bgWG.Done()
		rng := rand.New(rand.NewSource(99))
		run := make([]int64, 8)
		for !stop.Load() {
			start := rng.Int63n(pages - int64(len(run)))
			for i := range run {
				run[i] = start + int64(i)
			}
			p.Prefetch(0, run)
			// One run in flight at a time: the workers' pages stay mostly
			// resident, so most Gets race the clock on the hit path
			// rather than wait for reads.
			p.DrainPrefetch()
		}
	}()
	go func() { // background writer and checkpoints
		defer bgWG.Done()
		at := simclock.Time(0)
		for i := 0; !stop.Load(); i++ {
			var err error
			if i%2 == 0 {
				_, at, err = p.SweepDirty(at, 8)
			} else {
				at, err = p.FlushAll(at)
			}
			if err != nil {
				errs <- err
				return
			}
			runtime.Gosched()
		}
	}()
	workerWG.Wait()
	stop.Store(true)
	bgWG.Wait()
	p.DrainPrefetch()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	held := map[int64]bool{}
	for pi := range p.parts {
		for _, f := range p.parts[pi].frames {
			if n := f.pin.Load(); n != 0 {
				t.Fatalf("frame holding page %d left with pin %d", f.DevPage(), n)
			}
			if dp := f.page.Load(); dp >= 0 {
				if held[dp] {
					t.Fatalf("page %d published by two frames", dp)
				}
				held[dp] = true
				if f.DevPage() != dp || stampOf(f.Data) != dp {
					t.Fatalf("frame publishes page %d but holds page %d stamped %d", dp, f.DevPage(), stampOf(f.Data))
				}
			}
		}
	}
	st := p.Stats()
	if st.Hits == 0 || st.Evictions == 0 || st.PrefetchIssued == 0 {
		t.Fatalf("no contention exercised: %+v", st)
	}
}
