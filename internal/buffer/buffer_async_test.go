package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/simclock"
)

// newWrappedPool builds a pool over a hook-capable device wrapper so tests
// can gate, fail or count individual device reads.
func newWrappedPool(frames, partitions int) (*Pool, *device.Wrap) {
	dev := device.NewWrap(device.NewMem(page.Size, 1<<16))
	p := New(Config{Frames: frames, Partitions: partitions, HitCost: simclock.Microsecond}, dev)
	return p, dev
}

// waitForReadWaits polls until the pool has accumulated at least n
// singleflight joins or the deadline passes.
func waitForReadWaits(t *testing.T, p *Pool, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.readWaits.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d read waits (have %d)", n, p.readWaits.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMissSingleflight starts N goroutines that Get the same cold page while
// the device read is gated shut. Exactly one device read may be issued; every
// goroutine must receive the same frame, and all pins must balance so the
// page is evictable afterwards. Run under -race this also proves the
// waiter/loader handoff is properly synchronized.
func TestMissSingleflight(t *testing.T) {
	p, dev := newWrappedPool(64, 1)
	const target = int64(7)
	const workers = 8

	var reads atomic.Int64
	gate := make(chan struct{})
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo == target {
			reads.Add(1)
			<-gate
		}
		return nil
	})

	frames := make([]*Frame, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, _, err := p.Get(0, target, false)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			frames[i] = f
		}(i)
	}
	// All but the loader must join the in-flight read before it completes.
	waitForReadWaits(t, p, workers-1)
	close(gate)
	wg.Wait()

	if got := reads.Load(); got != 1 {
		t.Fatalf("device reads of page %d = %d, want exactly 1", target, got)
	}
	for i := 1; i < workers; i++ {
		if frames[i] != frames[0] {
			t.Fatalf("worker %d got a different frame than worker 0", i)
		}
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, workers-1)
	}
	if st.ReadWaits != workers-1 {
		t.Fatalf("read waits = %d, want %d", st.ReadWaits, workers-1)
	}
	if st.IOPending != 0 {
		t.Fatalf("io pending = %d after all loads published", st.IOPending)
	}
	for range frames {
		p.Release(frames[0], false)
	}
	if pin := frames[0].pin.Load(); pin != 0 {
		t.Fatalf("pin count = %d after all releases, want 0", pin)
	}
}

// TestStripeNotBlockedDuringLoad enforces the core locking rule of the async
// miss path: the partition mutex is not held across a device read. One Get's
// read is gated shut while a concurrent Get of a *different* page in the
// *same* partition must still complete.
func TestStripeNotBlockedDuringLoad(t *testing.T) {
	p, dev := newWrappedPool(64, 1) // one partition: both pages share its mutex
	const blocked, other = int64(3), int64(11)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo == blocked {
			once.Do(func() { close(entered) })
			<-gate
		}
		return nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f, _, err := p.Get(0, blocked, false)
		if err != nil {
			t.Errorf("blocked get: %v", err)
			return
		}
		p.Release(f, false)
	}()
	<-entered // the loader is inside ReadPage now

	done := make(chan struct{})
	go func() {
		defer close(done)
		f, _, err := p.Get(0, other, false)
		if err != nil {
			t.Errorf("other get: %v", err)
			return
		}
		p.Release(f, false)
	}()
	select {
	case <-done:
		// Good: the stripe stayed available while page 3's read was in flight.
	case <-time.After(5 * time.Second):
		t.Fatal("Get of another page in the stripe blocked behind an in-flight read: partition mutex held across ReadPage")
	}
	close(gate)
	wg.Wait()
}

// TestReadErrorPropagatesToWaiters gates a read shut, piles waiters onto it,
// then fails the read. Every waiter must see the error, and the pool must
// come back fully usable: the slot returns to the free list and a retry of
// the same page succeeds.
func TestReadErrorPropagatesToWaiters(t *testing.T) {
	p, dev := newWrappedPool(64, 1)
	const target = int64(5)
	const workers = 6
	wantErr := errors.New("injected media error")

	var fail atomic.Bool
	fail.Store(true)
	gate := make(chan struct{})
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo == target && fail.Load() {
			<-gate
			return wantErr
		}
		return nil
	})

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := p.Get(0, target, false)
			errs[i] = err
		}(i)
	}
	waitForReadWaits(t, p, workers-1)
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Fatalf("worker %d error = %v, want wrapped %v", i, err, wantErr)
		}
	}
	st := p.Stats()
	if st.IOPending != 0 {
		t.Fatalf("io pending = %d after failed load", st.IOPending)
	}
	// The failed frame must be back on the free list with no residue.
	fail.Store(false)
	f, _, err := p.Get(0, target, false)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	p.Release(f, false)
}

// TestNthReadFailureLeaksNothing is the fault-injection regression for the
// miss path's error handling: churn the pool with a device that fails the
// Nth read, and verify exactly the affected Get errors, nothing leaks, and
// every page is still readable afterwards.
func TestNthReadFailureLeaksNothing(t *testing.T) {
	p, dev := newWrappedPool(64, 1) // 64 frames, working set 256 pages: constant eviction
	wantErr := errors.New("injected read fault")
	const failOn = 100

	var reads atomic.Int64
	dev.SetReadHook(func(pageNo int64, n int) error {
		if reads.Add(1) == failOn {
			return wantErr
		}
		return nil
	})

	at := simclock.Time(0)
	failures := 0
	for i := 0; i < 1000; i++ {
		dp := int64(i % 256)
		f, t2, err := p.Get(at, dp, false)
		if err != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("op %d: unexpected error %v", i, err)
			}
			failures++
			continue
		}
		at = t2
		p.Release(f, false)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want exactly 1 (the injected fault)", failures)
	}
	st := p.Stats()
	if st.IOPending != 0 {
		t.Fatalf("io pending = %d after churn", st.IOPending)
	}
	// Every page must still be loadable: no frame leaked out of the free
	// list or index by the failed read.
	for dp := int64(0); dp < 256; dp++ {
		f, t2, err := p.Get(at, dp, false)
		if err != nil {
			t.Fatalf("post-fault read of page %d: %v", dp, err)
		}
		at = t2
		p.Release(f, false)
	}
}

// TestPendingFrameNeverEvicted gates one page's load shut in a two-frame
// pool and churns the only other frame through many evictions. The pending
// frame must never be chosen as a victim: when the gate opens, the loader
// still owns its frame and publishes the right bytes.
func TestPendingFrameNeverEvicted(t *testing.T) {
	p, dev := newWrappedPool(2, 1)
	const target = int64(42)

	// Seed page 42 with a recognizable pattern via the device.
	buf := make([]byte, page.Size)
	for i := range buf {
		buf[i] = byte(target + int64(i))
	}
	if _, err := dev.WritePage(0, target, buf); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo == target {
			once.Do(func() { close(entered) })
			<-gate
		}
		return nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	var loaded *Frame
	go func() {
		defer wg.Done()
		f, _, err := p.Get(0, target, false)
		if err != nil {
			t.Errorf("gated get: %v", err)
			return
		}
		loaded = f
	}()
	<-entered

	// Churn the remaining frame: every one of these needs a victim, and the
	// only legal one is the previous churn page — never the pending frame.
	done := make(chan struct{})
	go func() {
		defer close(done)
		at := simclock.Time(0)
		for i := 0; i < 50; i++ {
			dp := int64(100 + i)
			f, t2, err := p.Get(at, dp, false)
			if err != nil {
				t.Errorf("churn get %d: %v", i, err)
				return
			}
			at = t2
			p.Release(f, false)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("churn deadlocked: eviction likely tried to claim the pending frame")
	}
	close(gate)
	wg.Wait()

	if loaded == nil {
		t.Fatal("loader did not complete")
	}
	if loaded.DevPage() != target {
		t.Fatalf("loaded frame holds page %d, want %d", loaded.DevPage(), target)
	}
	for i := 0; i < 16; i++ {
		if loaded.Data[i] != byte(target+int64(i)) {
			t.Fatalf("byte %d = %d, want %d: pending frame was clobbered", i, loaded.Data[i], byte(target+int64(i)))
		}
	}
	p.Release(loaded, false)
}

// TestMissWaitsForLoadingVictims fills a two-frame pool with gated prefetch
// reads and misses a third page: with no victim but reads in flight, the
// Get must wait for one to finish instead of reporting the stripe pinned.
func TestMissWaitsForLoadingVictims(t *testing.T) {
	p, dev := newWrappedPool(2, 1)
	gate := make(chan struct{})
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo < 2 {
			<-gate
		}
		return nil
	})
	p.Prefetch(0, []int64{0, 1})
	done := make(chan error, 1)
	go func() {
		f, _, err := p.Get(0, 5, false)
		if err == nil {
			p.Release(f, false)
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Get returned (%v) while every frame was loading", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.DrainPrefetch()
}

// TestPrefetchCoalesce stages eight consecutive cold pages and verifies they
// arrive through a single batched device read, publish with the right bytes,
// and the follow-up Gets are all hits.
func TestPrefetchCoalesce(t *testing.T) {
	p, dev := newWrappedPool(64, 1)
	base := int64(10)
	const n = 8
	pages := make([]int64, n)
	for i := range pages {
		pages[i] = base + int64(i)
		buf := make([]byte, page.Size)
		for j := range buf {
			buf[j] = byte(pages[i]) ^ byte(j)
		}
		if _, err := dev.WritePage(0, pages[i], buf); err != nil {
			t.Fatal(err)
		}
	}

	p.Prefetch(0, pages)
	p.DrainPrefetch()

	st := p.Stats()
	if st.PrefetchIssued != n {
		t.Fatalf("prefetch issued = %d, want %d", st.PrefetchIssued, n)
	}
	if st.PrefetchCoalesced != n-1 {
		t.Fatalf("prefetch coalesced = %d, want %d", st.PrefetchCoalesced, n-1)
	}
	if got := dev.BatchOps(); got != 1 {
		t.Fatalf("batched device reads = %d, want 1", got)
	}
	if got := dev.ReadOps(); got != 1 {
		t.Fatalf("host read ops = %d, want 1 (the single coalesced batch)", got)
	}
	if st.IOPending != 0 {
		t.Fatalf("io pending = %d after drain", st.IOPending)
	}

	for _, dp := range pages {
		f, _, err := p.Get(0, dp, false)
		if err != nil {
			t.Fatalf("get prefetched page %d: %v", dp, err)
		}
		for j := 0; j < 32; j++ {
			if f.Data[j] != byte(dp)^byte(j) {
				t.Fatalf("page %d byte %d = %d, want %d", dp, j, f.Data[j], byte(dp)^byte(j))
			}
		}
		p.Release(f, false)
	}
	st = p.Stats()
	if st.Misses != 0 || st.Hits != n {
		t.Fatalf("hits/misses after prefetched gets = %d/%d, want %d/0", st.Hits, st.Misses, n)
	}
	if st.PrefetchWasted != 0 {
		t.Fatalf("prefetch wasted = %d, want 0 (every page was used)", st.PrefetchWasted)
	}
}

// TestReadBatchAllocBudget pins the coalesced read's budget: with the worker's
// staging buffer warm, a 32-page readBatch allocates exactly as often as a
// 2-page one — not at all — where a buffer per batch would cost 256 KB a run.
func TestReadBatchAllocBudget(t *testing.T) {
	p := New(Config{Frames: 64, Partitions: 1}, device.NewMem(page.Size, 1<<10))
	run := func(n int) []int64 {
		pages := make([]int64, n)
		for i := range pages {
			pages[i] = int64(100 + i)
		}
		return pages
	}
	buf := p.readBatch(0, p.claimPrefetch(0, run(maxCoalesce)), nil) // warm
	p.InvalidateAll()
	// The fewest allocations over a few runs: the process-wide malloc count
	// also sees goroutines earlier tests left behind, a run's own cost does
	// not vary.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(n int) uint64 {
		least := ^uint64(0)
		for round := 0; round < 5; round++ {
			claims := p.claimPrefetch(0, run(n))
			if len(claims) != n {
				t.Fatalf("claimed %d of %d pages", len(claims), n)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			buf = p.readBatch(0, claims, buf)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
			if st := p.Stats(); st.IOPending != 0 {
				t.Fatalf("io pending = %d after the batch", st.IOPending)
			}
			p.InvalidateAll()
		}
		return least
	}
	long, short := allocs(maxCoalesce), allocs(2)
	if long != short || long != 0 {
		t.Errorf("a warm readBatch allocates %d times at %d pages, %d at 2: want 0 at both", long, maxCoalesce, short)
	}
}

// TestPrefetchWasted evicts prefetched-but-unused frames and checks the
// waste counter, plus that a Get clears the prefetched mark so used pages
// are never counted as waste.
func TestPrefetchWasted(t *testing.T) {
	p, _ := newWrappedPool(2, 1)
	p.Prefetch(0, []int64{20, 21})
	p.DrainPrefetch()
	if st := p.Stats(); st.PrefetchIssued != 2 {
		t.Fatalf("prefetch issued = %d, want 2", st.PrefetchIssued)
	}

	// Use page 20, leave 21 untouched, then churn both frames out.
	f, _, err := p.Get(0, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f, false)
	at := simclock.Time(0)
	for i := 0; i < 8; i++ {
		f, t2, err := p.Get(at, int64(200+i), false)
		if err != nil {
			t.Fatal(err)
		}
		at = t2
		p.Release(f, false)
	}
	if st := p.Stats(); st.PrefetchWasted != 1 {
		t.Fatalf("prefetch wasted = %d, want 1 (only the untouched page)", st.PrefetchWasted)
	}
}

// TestPrefetchSingleflightJoin gates a prefetch read shut and issues a Get
// for the same page: the Get must join the prefetch's in-flight read rather
// than issuing its own, and must return the published bytes.
func TestPrefetchSingleflightJoin(t *testing.T) {
	p, dev := newWrappedPool(64, 1)
	const target = int64(30)
	buf := make([]byte, page.Size)
	for i := range buf {
		buf[i] = 0xAB
	}
	if _, err := dev.WritePage(0, target, buf); err != nil {
		t.Fatal(err)
	}

	var reads atomic.Int64
	gate := make(chan struct{})
	dev.SetReadHook(func(pageNo int64, n int) error {
		if pageNo == target {
			reads.Add(1)
			<-gate
		}
		return nil
	})

	p.Prefetch(0, []int64{target})
	done := make(chan struct{})
	var got *Frame
	go func() {
		defer close(done)
		f, _, err := p.Get(0, target, false)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		got = f
	}()
	waitForReadWaits(t, p, 1)
	close(gate)
	<-done
	p.DrainPrefetch()

	if got == nil {
		t.Fatal("get did not complete")
	}
	if reads.Load() != 1 {
		t.Fatalf("device reads = %d, want 1 (get must join the prefetch)", reads.Load())
	}
	if got.Data[0] != 0xAB {
		t.Fatalf("data[0] = %#x, want 0xAB", got.Data[0])
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0 (join then hit)", st.Hits, st.Misses)
	}
	p.Release(got, false)
}

// TestConcurrentColdScanWithPrefetch hammers Get+Prefetch from many
// goroutines under eviction pressure; under -race this proves the prefetch
// publish path and the demand-miss path never race on frame state.
func TestConcurrentColdScanWithPrefetch(t *testing.T) {
	p, _ := newWrappedPool(128, 4)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := simclock.Time(0)
			base := int64(w * 97)
			for i := 0; i < 400; i++ {
				dp := (base + int64(i)) % 512
				if i%16 == 0 {
					window := make([]int64, 16)
					for j := range window {
						window[j] = (dp + int64(j)) % 512
					}
					p.Prefetch(at, window)
				}
				f, t2, err := p.Get(at, dp, false)
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
				at = t2
				p.Release(f, false)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.DrainPrefetch()
	if st := p.Stats(); st.IOPending != 0 {
		t.Fatalf("io pending = %d after drain", st.IOPending)
	}
}
