// Package buffer implements the buffer manager: a fixed pool of page frames
// over a block device with clock-sweep replacement, pin counting, dirty
// tracking, a background writer and checkpointing.
//
// The paper's write-reduction experiment (Table 1) hinges on *when* dirty
// pages reach the device:
//
//   - threshold t1 — the PostgreSQL background writer's default pace: the
//     engine calls SweepDirty on a fixed virtual-time tick, persisting dirty
//     pages (including sparsely filled SIAS append pages) frequently;
//   - threshold t2 — checkpoint piggyback: dirty pages are flushed only by
//     FlushAll at checkpoint intervals, so SIAS append pages are almost
//     always full when they first reach the device.
//
// WAL-before-data is enforced: before a dirty page is written, the pool
// calls the configured WALFlush up to the page's LSN.
//
// # Concurrency
//
// The pool is lock-striped: frames are hash-partitioned over P independent
// partitions, each with its own mutex, frame table, free list, clock hand
// and counters, so misses, prefetch and write-back on distinct pages
// contend only within a partition. A device page always maps to the same
// partition, and its partition's index is the only authority on where the
// page lives: every claim, load, eviction and write-back of the page is
// serialized by that one partition mutex.
//
// A hit takes no mutex. Each frame publishes, in an atomic, the device page
// it holds while that page is resident and readable (-1 otherwise), and the
// pool keeps a direct-mapped hint table from device page to the frame that
// last held it. Get loads the hint, checks the frame's page, adds 1 to its
// pin and checks the page again; on any mismatch it drops that pin and takes
// the partition mutex. The hint is never trusted on its own: a stale one
// costs a failed check, not a wrong frame.
//
// What makes this sound is how a frame is claimed for another page: the
// claim swaps the pin from 0 to a large negative sentinel (evicting) by CAS,
// under the partition mutex, before it touches the frame. A pin taken before
// the swap makes the CAS fail, so the frame stays; a pin taken after it
// reads a count <= 0 and backs out. Once a frame can be reached through the
// hint, its pin only changes by Add or CAS, never by Store, so a backing-out
// reader's +1/-1 is never lost. The write-back paths (sweep, checkpoint)
// still skip any pinned frame, and FlushPage writes a pinned one under the
// exclusive latch.
//
// Page *content* is protected by a per-frame reader/writer latch, not the
// partition mutex: callers hold the latch (shared for reads, exclusive for
// mutations) only between Get and Release, and the pool's write-back paths
// take the latch exclusively before reading the frame bytes, so checksums
// and device writes never race with an in-flight mutator.
//
// Lock ordering rule: partition mutex, then frame latch. Callers must never
// re-enter the pool (which may acquire a partition mutex) while holding a
// frame latch, and must release the latch before Release drops the pin. The
// write-back paths rely on it: a hit may pin a frame just after their pin
// check, so they may wait for that caller's latch while holding the
// partition mutex.
//
// # The IO-pending miss path
//
// The partition mutex is never held across a device read. On a miss, Get
// claims a victim, inserts the frame into the stripe index in the
// *IO-pending* state (Frame.load non-nil, valid still false), releases the
// partition mutex, and performs the read under the frame latch only. A
// concurrent Get of the same page singleflights on the pending frame: it
// waits for that read's completion channel — one device read total — while
// Gets of other pages in the stripe proceed immediately. Publishing clears
// the pending state and wakes the waiters; a failed read unpublishes the
// frame (index entry removed, slot returned to the free list) and delivers
// the error to every waiter. An IO-pending frame is never chosen as an
// eviction victim, so a miss that finds every frame of its stripe pinned
// or pending waits for a pending read to finish and looks again, and fails
// only when every frame is pinned. A pending frame is invisible to the
// sweep/checkpoint writers (its valid flag is still false).
//
// Frame lifecycle:
//
//	free ──claim──▶ IO-pending ──publish──▶ resident ──evict──▶ free/claimed
//	                   │                        ▲
//	                   └──read error──▶ free    └── singleflight waiters pin here
//
// Victim write-back (WAL flush + page write) still happens under the
// partition mutex at claim time, before the page leaves the index — moving
// it off the lock would open a window where a Get of the victim page reads
// stale bytes from the device. Read-heavy workloads rarely claim dirty
// victims, and the prefetcher refuses them outright.
//
// Prefetch stages pages ahead of a scan cursor through the same pending
// state: frames are claimed unpinned (pin 0), adjacent device pages are
// coalesced into one batched pread when the device implements
// device.PageRangeReader, and a bounded worker pool keeps several reads in
// flight so a cold scan saturates the device instead of serializing misses.
// The scan's Get then either hits the published frame or singleflight-joins
// the still-in-flight read.
package buffer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sias/internal/device"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/simclock"
)

// Config parameterizes a Pool.
type Config struct {
	// Frames is the number of page frames in the pool.
	Frames int
	// Partitions is the number of independent lock stripes. 0 picks a
	// default that keeps at least minPartitionFrames frames per stripe, so
	// tiny pools (tests, differential experiments) collapse to a single
	// partition and behave exactly like the classic one-mutex pool.
	Partitions int
	// HitCost is the virtual CPU time charged for a buffer hit.
	HitCost simclock.Duration
	// WALFlush, if set, is called before writing a dirty page whose LSN
	// exceeds the durable WAL horizon.
	WALFlush func(at simclock.Time, lsn uint64) (simclock.Time, error)
}

// DefaultPartitions is the stripe count used when Config.Partitions is 0
// and the pool is large enough to split.
const DefaultPartitions = 16

// minPartitionFrames is the smallest stripe worth having: below this,
// striping only fragments the replacement policy.
const minPartitionFrames = 64

// prefetchWorkers bounds the number of prefetch device reads in flight at
// once: enough to keep a flash device's channels busy without unbounded
// goroutine fan-out.
const prefetchWorkers = 8

// maxCoalesce caps how many adjacent pages one prefetch batch merges into a
// single pread (32 pages = 256 KB at the default page size).
const maxCoalesce = 32

// errNoVictim is what claimLocked's error wraps when no frame of the stripe
// can be claimed: every one is pinned or loading.
var errNoVictim = errors.New("no frame to claim")

// evicting is the pin count a claim swaps in while it takes a frame for
// another page. A hit that pins the frame meanwhile reads a count <= 0 and
// backs out; half of MinInt32 leaves room for any number of such readers.
const evicting = math.MinInt32 / 2

// loadState is the singleflight rendezvous for one in-flight page read.
// err and doneAt are written exactly once, before done is closed; waiters
// read them only after <-done.
type loadState struct {
	done   chan struct{}
	err    error
	doneAt simclock.Time
}

// arena is the memory a pool's pages live in: one mapping of Frames ×
// page.Size bytes, outside the Go heap, so that resident memory is the
// pages written rather than twice them (the collector's goal doubles
// whatever the heap holds). Every Frame points to its arena, and a
// finalizer unmaps it once no frame can be reached; a page.Page kept past
// that point is the one way to touch unmapped memory, and no path keeps
// one (DESIGN.md lists them). Without a mapping — race and non-unix
// builds, or a failed mmap — mem is nil and each frame's page is a heap
// slice.
type arena struct{ mem []byte }

func newArena(frames int) *arena {
	a := &arena{mem: mapArena(frames * page.Size)}
	if a.mem != nil {
		runtime.SetFinalizer(a, func(a *arena) { unmapArena(a.mem) })
	}
	return a
}

// page returns the page of the frame at slot: its fixed slice of the
// mapping, capacity-limited so no append can reach a neighbour.
func (a *arena) page(slot int) page.Page {
	if a.mem == nil {
		return make(page.Page, page.Size)
	}
	off := slot * page.Size
	return page.Page(a.mem[off : off+page.Size : off+page.Size])
}

// Frame is one buffered page. Callers access Data only between Get and
// Release while holding the pin, and bracket that access with the frame
// latch: RLock/RUnlock around reads, Lock/Unlock around mutations.
type Frame struct {
	devPage int64
	Data    page.Page
	// arena and slot say where Data comes from on the frame's first claim;
	// the pointer also keeps the arena mapped while the frame is reachable.
	arena *arena
	slot  int

	latch sync.RWMutex
	pin   atomic.Int32
	// page is devPage while the frame is resident and readable, -1
	// otherwise: what a hit checks around its pin instead of taking the
	// partition mutex.
	page atomic.Int64
	// hits counts the Gets that found this frame resident; Stats sums it.
	hits  atomic.Int64
	dirty atomic.Bool
	ref   atomic.Bool
	// prefetched marks a frame staged by Prefetch that no Get has used yet;
	// eviction of such a frame counts as wasted readahead.
	prefetched atomic.Bool
	valid      bool // partition-mutex protected
	// load is non-nil while a device read into this frame is in flight
	// (IO-pending state). Partition-mutex protected; the loader holds the
	// frame latch exclusively for the whole load.
	load *loadState
}

// DevPage reports the device page currently held (stable while pinned).
func (f *Frame) DevPage() int64 { return f.devPage }

// RLock takes the frame's content latch shared (concurrent page reads).
func (f *Frame) RLock() { f.latch.RLock() }

// RUnlock releases a shared content latch.
func (f *Frame) RUnlock() { f.latch.RUnlock() }

// Lock takes the frame's content latch exclusively (page mutation).
func (f *Frame) Lock() { f.latch.Lock() }

// Unlock releases an exclusive content latch.
func (f *Frame) Unlock() { f.latch.Unlock() }

// hit records a Get that found f resident and pinned it: f is referenced
// for the clock and, if prefetched, used. Each flag is written only when it
// changes, so a hit on a hot frame writes its pin and its hit count.
func (f *Frame) hit() {
	f.hits.Add(1)
	if !f.ref.Load() {
		f.ref.Store(true)
	}
	if f.prefetched.Load() {
		f.prefetched.Store(false)
	}
}

// Stats counts pool activity. PartitionEvictions has one entry per lock
// stripe, so skew across partitions is visible to operators.
type Stats struct {
	Hits      int64 `metric:"sias_pool_hits_total,counter" help:"Buffer pool page hits."`
	Misses    int64 `metric:"sias_pool_misses_total,counter" help:"Buffer pool page misses."`
	Evictions int64 `metric:"sias_pool_evictions_total,counter" help:"Buffer pool evictions."`
	DirtyOut  int64 `metric:"sias_pool_dirty_writebacks_total,counter" help:"Dirty pages written back (evictions + sweeps + checkpoints)."`
	// PartitionEvictions is the per-stripe slice of Evictions.
	PartitionEvictions []int64 `metric:"sias_pool_partition_evictions_total,counter" help:"Buffer pool evictions per lock stripe." label:"partition"`

	// IOPending is the number of frames with a device read in flight at
	// snapshot time (a gauge, not a counter).
	IOPending int64 `metric:"sias_pool_io_pending,gauge" help:"Frames with a device read in flight (IO-pending state)."`
	// ReadWaits counts Gets that blocked on another caller's in-flight read
	// of the same page (singleflight joins).
	ReadWaits int64 `metric:"sias_pool_read_waits_total,counter" help:"Gets that singleflight-joined another caller's in-flight read."`
	// PrefetchIssued counts pages staged by the async prefetcher.
	PrefetchIssued int64 `metric:"sias_pool_prefetch_issued_total,counter" help:"Pages staged by the scan readahead prefetcher."`
	// PrefetchCoalesced counts device reads saved by merging adjacent
	// prefetch pages into one batched pread.
	PrefetchCoalesced int64 `metric:"sias_pool_prefetch_coalesced_total,counter" help:"Device reads saved by merging adjacent prefetch pages into one pread."`
	// PrefetchWasted counts prefetched pages evicted before any Get used
	// them (readahead that did not pay off).
	PrefetchWasted int64 `metric:"sias_pool_prefetch_wasted_total,counter" help:"Prefetched pages evicted before any Get used them."`
	// ResidentBytes is the page memory the pool holds: the frames that own
	// a page (claimed at least once) × page.Size. Pages in the arena are
	// outside the Go heap, so runtime.MemStats does not count them.
	ResidentBytes int64 `metric:"sias_pool_resident_bytes,gauge" help:"Page memory the pool holds: frames that own a page times the page size."`
}

// HitRatio reports hits/(hits+misses), 0 if no traffic.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// partition is one lock stripe: a private frame table with its own
// replacement state and counters.
type partition struct {
	mu     sync.Mutex
	frames []*Frame
	index  map[int64]int
	free   []int // never-used frames (stack); refilled by InvalidateAll
	hand   int
	owned  int // frames that own a page

	misses    int64
	evictions int64
	dirtyOut  int64
}

// Pool is the buffer manager.
type Pool struct {
	cfg    Config
	dev    device.BlockDevice
	parts  []partition
	frames int

	// hints maps a device page, by Fibonacci hash, to the frame that last
	// held it: a power-of-two table of at least 2 × frames slots, written
	// under the page's partition mutex when a load publishes and on a locked
	// hit. It is never authoritative; see Get.
	hints     []atomic.Pointer[Frame]
	hintShift uint

	ioPending         atomic.Int64
	readWaits         atomic.Int64
	prefetchIssued    atomic.Int64
	prefetchCoalesced atomic.Int64
	prefetchWasted    atomic.Int64

	// prefetchBufs holds one slot per prefetch worker: a read in flight takes
	// one and puts it back, which bounds the reads. Each slot is the staging
	// buffer its coalesced reads land in, allocated on first use and kept.
	prefetchBufs chan []byte
	prefetchWG   sync.WaitGroup

	// readWaitH, when set, observes the wall-clock seconds a Get blocked on
	// another caller's in-flight read. Set at assembly time via
	// SetIOMetrics, before the pool is shared.
	readWaitH *obs.Histogram
}

// New creates a pool over dev.
func New(cfg Config, dev device.BlockDevice) *Pool {
	if cfg.Frames <= 0 {
		panic("buffer: pool needs at least one frame")
	}
	nparts := cfg.Partitions
	if nparts <= 0 {
		nparts = cfg.Frames / minPartitionFrames
		if nparts > DefaultPartitions {
			nparts = DefaultPartitions
		}
	}
	if nparts < 1 {
		nparts = 1
	}
	if nparts > cfg.Frames {
		nparts = cfg.Frames
	}
	nhints := 2
	for nhints < 2*cfg.Frames {
		nhints <<= 1
	}
	p := &Pool{
		cfg:          cfg,
		dev:          dev,
		parts:        make([]partition, nparts),
		frames:       cfg.Frames,
		hints:        make([]atomic.Pointer[Frame], nhints),
		hintShift:    uint(64 - bits.TrailingZeros(uint(nhints))),
		prefetchBufs: make(chan []byte, prefetchWorkers),
	}
	for i := 0; i < prefetchWorkers; i++ {
		p.prefetchBufs <- nil
	}
	a := newArena(cfg.Frames)
	for i := range p.parts {
		n := cfg.Frames / nparts
		if i < cfg.Frames%nparts {
			n++
		}
		pt := &p.parts[i]
		pt.index = make(map[int64]int, n)
		pt.frames = make([]*Frame, n)
		pt.free = make([]int, n)
		for j := range pt.frames {
			// Slots interleave the stripes, which claim their frames in
			// order, so the arena's written pages stay one dense prefix.
			f := &Frame{devPage: -1, arena: a, slot: j*nparts + i} // Data comes with the first claim
			f.page.Store(-1)
			pt.frames[j] = f
			pt.free[j] = n - 1 - j // pop order 0,1,2,...
		}
	}
	return p
}

// SetIOMetrics attaches the wall-clock histogram for singleflight read
// waits. Set at assembly time, before the pool is shared.
func (p *Pool) SetIOMetrics(readWait *obs.Histogram) { p.readWaitH = readWait }

// partOf maps a device page to its partition (SplitMix64 finalizer: cheap
// and uncorrelated with the allocator's extent striding).
func (p *Pool) partOf(devPage int64) *partition {
	if len(p.parts) == 1 {
		return &p.parts[0]
	}
	z := uint64(devPage) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &p.parts[z%uint64(len(p.parts))]
}

// hint returns devPage's slot in the hint table (Fibonacci hashing: the top
// bits of devPage × 2^64/φ).
func (p *Pool) hint(devPage int64) *atomic.Pointer[Frame] {
	return &p.hints[uint64(devPage)*0x9e3779b97f4a7c15>>p.hintShift]
}

// Get pins the frame holding devPage, reading it from the device on a miss.
// If init is true the page is being created: no device read is issued and
// the frame contents are zeroed for the caller to format.
//
// A hit on a page the hint table names takes no mutex: it pins the frame
// and checks, before and after, that the frame still publishes devPage (see
// the package comment). Anything else — a stale or empty hint, a frame being
// claimed, a page in flight or absent — undoes any pin it took and takes the
// partition mutex. There the partition mutex is released before any device
// read: a Get that misses becomes the frame's loader, and concurrent Gets of
// the same page wait on the loader's completion instead of issuing their
// own reads. A miss that finds no victim waits for a read in flight in its
// stripe, if there is one, and tries again.
func (p *Pool) Get(at simclock.Time, devPage int64, init bool) (*Frame, simclock.Time, error) {
	if !init {
		if f := p.hint(devPage).Load(); f != nil && f.page.Load() == devPage {
			if f.pin.Add(1) > 0 && f.page.Load() == devPage {
				f.hit()
				return f, at.Add(p.cfg.HitCost), nil
			}
			f.pin.Add(-1)
		}
	}
	pt := p.partOf(devPage)
	pt.mu.Lock()
	var idx int
	var t simclock.Time
	for {
		var ok bool
		if idx, ok = pt.index[devPage]; !ok {
			var err error
			if idx, t, err = p.claimLocked(pt, at, false); err == nil {
				break
			}
			// With no victim, every frame is pinned or loading. A load ends
			// on its own, so wait for one and look again; with none in
			// flight the stripe is pinned full.
			var ld *loadState
			if errors.Is(err, errNoVictim) {
				ld = pt.anyLoad()
			}
			if ld == nil {
				pt.mu.Unlock()
				return nil, t, err
			}
			pt.mu.Unlock()
			<-ld.done
			at = max(at, ld.doneAt)
			pt.mu.Lock()
			continue
		}
		f := pt.frames[idx]
		if f.load == nil {
			f.pin.Add(1)
			f.hit()
			p.hint(devPage).Store(f)
			pt.mu.Unlock()
			return f, at.Add(p.cfg.HitCost), nil
		}
		// IO-pending: singleflight-join the in-flight read. Drop the
		// partition mutex first so other pages in the stripe stay available
		// while we wait.
		ld := f.load
		p.readWaits.Add(1)
		pt.mu.Unlock()
		start := time.Now()
		<-ld.done
		if p.readWaitH != nil {
			p.readWaitH.Observe(time.Since(start).Seconds())
		}
		if ld.err != nil {
			return nil, at, fmt.Errorf("buffer: read page %d: %w", devPage, ld.err)
		}
		if ld.doneAt > at {
			at = ld.doneAt
		}
		// Re-check from the top: the usual outcome is a hit on the
		// published frame; if it was already evicted again, this Get
		// becomes the loader.
		pt.mu.Lock()
	}
	pt.misses++
	// claimLocked returns with the frame latch held exclusively; the latch
	// stays held across the device read so the race detector checks that
	// loading never overlaps a reader.
	f := pt.frames[idx]
	f.devPage = devPage
	f.dirty.Store(false)
	f.pin.Add(1 - evicting) // the claim's sentinel becomes the loader's pin
	f.ref.Store(true)
	f.prefetched.Store(false)
	if init {
		// Page creation: no device read, so no pending state either.
		f.valid = true
		pt.index[devPage] = idx
		clear(f.Data)
		f.page.Store(devPage)
		p.hint(devPage).Store(f)
		f.Unlock()
		pt.mu.Unlock()
		return f, t.Add(p.cfg.HitCost), nil
	}
	f.valid = false
	ld := &loadState{done: make(chan struct{})}
	f.load = ld
	pt.index[devPage] = idx
	p.ioPending.Add(1)
	pt.mu.Unlock()

	t, rerr := p.dev.ReadPage(t, devPage, f.Data)
	if rerr != nil {
		f.pin.Add(-1) // a frame that failed to load is not handed out
	}
	p.publish(pt, f, idx, devPage, t, rerr, ld)
	if rerr != nil {
		return nil, t, fmt.Errorf("buffer: read page %d: %w", devPage, rerr)
	}
	return f, t, nil
}

// publish completes an in-flight load: it clears the pending state under
// the partition mutex, wakes every singleflight waiter, and releases the
// frame latch held since the claim. A loaded frame is published to the hit
// path: its page atomic and devPage's hint. On error the frame is
// unpublished — the index entry removed and the slot returned to the free
// list, the loader having dropped any pin it held — so a failed read leaks
// nothing and the next Get retries from scratch.
func (p *Pool) publish(pt *partition, f *Frame, idx int, devPage int64, t simclock.Time, err error, ld *loadState) {
	pt.mu.Lock()
	p.ioPending.Add(-1)
	if err == nil {
		f.valid = true
		f.page.Store(devPage)
		p.hint(devPage).Store(f)
	} else {
		if j, ok := pt.index[devPage]; ok && j == idx {
			delete(pt.index, devPage)
			pt.free = append(pt.free, idx)
		}
		f.valid = false
		f.devPage = -1
		f.dirty.Store(false)
		f.prefetched.Store(false)
	}
	f.load = nil
	pt.mu.Unlock()
	ld.err = err
	ld.doneAt = t
	close(ld.done)
	f.Unlock()
}

// claimLocked finds a victim frame in pt via free list then clock sweep,
// flushing it if dirty (cleanOnly skips dirty frames instead — the prefetch
// path refuses to pay write-backs). IO-pending frames are never victims.
// Caller holds pt.mu; on success the victim's latch is held exclusively, the
// victim is no longer in the index or published, and its pin holds the
// evicting sentinel (plus any hit still backing out), which the caller turns
// into its own count with an Add.
//
// A frame gets its page the first time it leaves the free list, not in New,
// and keeps it for life: eviction and InvalidateAll hand the same bytes to
// the next page. Arena pages are touched, and so made resident, only from
// then on. Every frame the clock reaches has been claimed once (the sweep
// only runs with the free list empty), so only the free-list path gives
// out pages.
func (p *Pool) claimLocked(pt *partition, at simclock.Time, cleanOnly bool) (int, simclock.Time, error) {
	t := at
	if n := len(pt.free); n > 0 {
		idx := pt.free[n-1]
		pt.free = pt.free[:n-1]
		f := pt.frames[idx]
		if f.Data == nil {
			f.Data = f.arena.page(f.slot)
			pt.owned++
		}
		// The frame is unpublished, but a hit that read it through a stale
		// hint may still pin it: the sentinel makes that pin back out.
		f.pin.Add(evicting)
		f.Lock()
		return idx, t, nil
	}
	for spin := 0; spin < 2*len(pt.frames)+1; spin++ {
		idx := pt.hand
		f := pt.frames[idx]
		pt.hand = (pt.hand + 1) % len(pt.frames)
		if f.load != nil || f.pin.Load() != 0 {
			// A pending frame's read is still publishing into Data; it is
			// as untouchable as a pinned one.
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			continue
		}
		// From the swap on, a hit that pins f backs out, so the frame can
		// change hands; a hit that pinned it first makes the swap fail.
		if !f.pin.CompareAndSwap(0, evicting) {
			continue
		}
		// pin == 0 means no caller holds the latch (the latch is only held
		// while pinned), so TryLock failing would be a caller protocol
		// violation; treat the frame as pinned and move on.
		if (cleanOnly && f.dirty.Load()) || !f.latch.TryLock() {
			f.pin.Add(-evicting)
			continue
		}
		if f.valid {
			if f.dirty.Load() {
				var err error
				t, err = p.writeFrameLocked(t, pt, f)
				if err != nil {
					f.latch.Unlock()
					f.pin.Add(-evicting)
					return 0, t, err
				}
				pt.dirtyOut++
			}
			f.page.Store(-1)
			delete(pt.index, f.devPage)
			pt.evictions++
			if f.prefetched.Swap(false) {
				p.prefetchWasted.Add(1)
			}
		}
		f.valid = false
		f.devPage = -1
		f.dirty.Store(false)
		return idx, t, nil
	}
	return 0, t, fmt.Errorf("buffer: all %d frames in partition pinned (%d frames, %d partitions): %w",
		len(pt.frames), p.frames, len(p.parts), errNoVictim)
}

// anyLoad returns the rendezvous of some read in flight in pt, or nil.
// Caller holds pt.mu.
func (pt *partition) anyLoad() *loadState {
	for _, f := range pt.frames {
		if f.load != nil {
			return f.load
		}
	}
	return nil
}

// prefetchClaim is one pending frame staged by Prefetch, carrying what the
// read worker needs to publish it.
type prefetchClaim struct {
	pt      *partition
	f       *Frame
	idx     int
	ld      *loadState
	devPage int64
}

// Holds reports whether devPage is resident or being read in: a page
// Prefetch would skip.
func (p *Pool) Holds(devPage int64) bool {
	pt := p.partOf(devPage)
	pt.mu.Lock()
	_, ok := pt.index[devPage]
	pt.mu.Unlock()
	return ok
}

// Prefetch stages pages into the pool ahead of a scan cursor and returns
// without waiting for the reads; it sorts pages in place and keeps no
// reference to it. Pages already resident or in flight are skipped; so are
// pages whose stripe has no clean unpinned victim (the scan's own Get will
// read those synchronously). Adjacent claimed device pages are merged into
// one batched pread (up to maxCoalesce) when the device implements
// device.PageRangeReader, and the reads run on a worker pool bounded by
// prefetchWorkers. A Get that arrives before a prefetched read completes
// singleflight-joins it.
func (p *Pool) Prefetch(at simclock.Time, pages []int64) {
	claims := p.claimPrefetch(at, pages)
	for start := 0; start < len(claims); {
		end := start + 1
		for end < len(claims) && claims[end].devPage == claims[end-1].devPage+1 && end-start < maxCoalesce {
			end++
		}
		batch := claims[start:end]
		start = end
		p.prefetchWG.Add(1)
		go func(batch []prefetchClaim) {
			defer p.prefetchWG.Done()
			buf := <-p.prefetchBufs
			p.prefetchBufs <- p.readBatch(at, batch, buf)
		}(batch)
	}
}

// claimPrefetch claims an IO-pending frame for each page of pages that is
// neither resident nor in flight and has a clean victim, in device page
// order; pages is sorted in place. The claim list is built only once a page
// is claimed, so a batch of resident pages allocates nothing.
func (p *Pool) claimPrefetch(at simclock.Time, pages []int64) []prefetchClaim {
	slices.Sort(pages)
	var claims []prefetchClaim
	last := int64(-1)
	for i, dp := range pages {
		if dp == last {
			continue
		}
		last = dp
		pt := p.partOf(dp)
		pt.mu.Lock()
		if _, ok := pt.index[dp]; ok {
			pt.mu.Unlock()
			continue
		}
		idx, _, err := p.claimLocked(pt, at, true)
		if err != nil {
			pt.mu.Unlock()
			continue
		}
		f := pt.frames[idx]
		ld := &loadState{done: make(chan struct{})}
		f.devPage = dp
		f.dirty.Store(false)
		f.pin.Add(-evicting) // staged unpinned
		f.ref.Store(true)
		f.valid = false
		f.prefetched.Store(true)
		f.load = ld
		pt.index[dp] = idx
		p.ioPending.Add(1)
		p.prefetchIssued.Add(1)
		pt.mu.Unlock()
		if claims == nil {
			claims = make([]prefetchClaim, 0, len(pages)-i)
		}
		claims = append(claims, prefetchClaim{pt: pt, f: f, idx: idx, ld: ld, devPage: dp})
	}
	return claims
}

// readBatch performs the device reads for one run of consecutive prefetch
// claims and publishes each frame. A coalesced read lands in the staging
// buffer buf, grown if the run needs more; readBatch returns the buffer for
// the worker slot to keep. A failed batched read falls back to per-page reads
// so only the genuinely unreadable page fails.
func (p *Pool) readBatch(at simclock.Time, batch []prefetchClaim, buf []byte) []byte {
	if len(batch) > 1 {
		if rr, ok := p.dev.(device.PageRangeReader); ok {
			ps := p.dev.PageSize()
			if cap(buf) < len(batch)*ps {
				buf = make([]byte, len(batch)*ps)
			}
			buf = buf[:len(batch)*ps]
			t, err := rr.ReadPages(at, batch[0].devPage, len(batch), buf)
			if err == nil {
				p.prefetchCoalesced.Add(int64(len(batch) - 1))
				for i := range batch {
					c := &batch[i]
					copy(c.f.Data, buf[i*ps:(i+1)*ps])
					p.publish(c.pt, c.f, c.idx, c.devPage, t, nil, c.ld)
				}
				return buf
			}
		}
	}
	t := at
	for i := range batch {
		c := &batch[i]
		t2, err := p.dev.ReadPage(t, c.devPage, c.f.Data)
		if err == nil {
			t = t2
		}
		p.publish(c.pt, c.f, c.idx, c.devPage, t2, err, c.ld)
	}
	return buf
}

// DrainPrefetch blocks until every in-flight prefetch has published. Used
// by shutdown, crash simulation and tests asserting IOPending returns to 0.
func (p *Pool) DrainPrefetch() { p.prefetchWG.Wait() }

// writeFrameLocked writes one dirty frame back (WAL first). Caller holds
// pt.mu and the frame latch exclusively.
func (p *Pool) writeFrameLocked(at simclock.Time, pt *partition, f *Frame) (simclock.Time, error) {
	t := at
	if p.cfg.WALFlush != nil {
		if lsn := f.Data.LSN(); lsn > 0 {
			var err error
			t, err = p.cfg.WALFlush(t, lsn)
			if err != nil {
				return t, err
			}
		}
	}
	f.Data.UpdateChecksum()
	t, err := p.dev.WritePage(t, f.devPage, f.Data)
	if err != nil {
		return t, fmt.Errorf("buffer: write page %d: %w", f.devPage, err)
	}
	f.dirty.Store(false)
	return t, nil
}

// Release unpins a frame; dirty marks it modified. Lock-free: hot-path
// readers never touch the partition mutex on the way out.
func (p *Pool) Release(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	if f.pin.Add(-1) < 0 {
		panic("buffer: release of unpinned frame")
	}
}

// FlushPage writes devPage out if buffered and dirty. Unlike the sweep and
// checkpoint paths it writes pinned pages too (the SIAS append-page seal
// targets the page it just filled); the exclusive frame latch keeps the
// write consistent against the pin holder.
func (p *Pool) FlushPage(at simclock.Time, devPage int64) (simclock.Time, error) {
	pt := p.partOf(devPage)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	idx, ok := pt.index[devPage]
	if !ok {
		return at, nil
	}
	f := pt.frames[idx]
	if f.load != nil {
		// IO-pending: the frame holds no committed bytes yet, and waiting
		// for the loader's latch here would stall the stripe. A loading
		// page is by definition clean.
		return at, nil
	}
	if !f.dirty.Load() {
		return at, nil
	}
	f.Lock()
	t, err := p.writeFrameLocked(at, pt, f)
	f.Unlock()
	if err == nil {
		pt.dirtyOut++
	}
	return t, err
}

// SweepDirty is the background-writer tick (threshold t1): it writes up to
// max dirty unpinned pages. max <= 0 means all. Returns pages written.
// IO-pending frames are skipped (valid is still false).
func (p *Pool) SweepDirty(at simclock.Time, max int) (int, simclock.Time, error) {
	written := 0
	t := at
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.mu.Lock()
		for _, f := range pt.frames {
			if max > 0 && written >= max {
				break
			}
			if !f.valid || !f.dirty.Load() || f.pin.Load() > 0 {
				continue
			}
			f.Lock()
			var err error
			t, err = p.writeFrameLocked(t, pt, f)
			f.Unlock()
			if err != nil {
				pt.mu.Unlock()
				return written, t, err
			}
			pt.dirtyOut++
			written++
		}
		pt.mu.Unlock()
		if max > 0 && written >= max {
			break
		}
	}
	return written, t, nil
}

// FlushAll writes every dirty page (the checkpoint, threshold t2).
func (p *Pool) FlushAll(at simclock.Time) (simclock.Time, error) {
	t := at
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.mu.Lock()
		for _, f := range pt.frames {
			if !f.valid || !f.dirty.Load() {
				continue
			}
			if f.pin.Load() > 0 {
				// A pinned page may be mid-modification; checkpoint skips
				// it, the next checkpoint or eviction will pick it up.
				continue
			}
			f.Lock()
			var err error
			t, err = p.writeFrameLocked(t, pt, f)
			f.Unlock()
			if err != nil {
				pt.mu.Unlock()
				return t, err
			}
			pt.dirtyOut++
		}
		pt.mu.Unlock()
	}
	return t, nil
}

// DirtyCount reports the number of dirty frames (pinned or not).
func (p *Pool) DirtyCount() int {
	n := 0
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.mu.Lock()
		for _, f := range pt.frames {
			if f.valid && f.dirty.Load() {
				n++
			}
		}
		pt.mu.Unlock()
	}
	return n
}

// InvalidateAll drops every frame without writing (crash simulation). It
// requires a quiesced pool: no concurrent Get may be in flight, so it may
// Store the pins a crashed caller left. In-flight prefetches are drained
// first.
func (p *Pool) InvalidateAll() {
	p.DrainPrefetch()
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.mu.Lock()
		pt.free = pt.free[:0]
		for j := len(pt.frames) - 1; j >= 0; j-- {
			f := pt.frames[j]
			f.valid = false
			f.page.Store(-1)
			f.dirty.Store(false)
			f.pin.Store(0)
			f.devPage = -1
			f.prefetched.Store(false)
			pt.free = append(pt.free, j)
		}
		pt.index = make(map[int64]int, len(pt.frames))
		pt.hand = 0
		pt.mu.Unlock()
	}
}

// Stats returns a race-safe snapshot of pool counters, folded over every
// partition.
func (p *Pool) Stats() Stats {
	s := Stats{PartitionEvictions: make([]int64, len(p.parts))}
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.mu.Lock()
		for _, f := range pt.frames {
			s.Hits += f.hits.Load()
		}
		s.Misses += pt.misses
		s.Evictions += pt.evictions
		s.DirtyOut += pt.dirtyOut
		s.PartitionEvictions[pi] = pt.evictions
		s.ResidentBytes += int64(pt.owned) * page.Size
		pt.mu.Unlock()
	}
	s.IOPending = p.ioPending.Load()
	s.ReadWaits = p.readWaits.Load()
	s.PrefetchIssued = p.prefetchIssued.Load()
	s.PrefetchCoalesced = p.prefetchCoalesced.Load()
	s.PrefetchWasted = p.prefetchWasted.Load()
	return s
}

// Frames reports the pool size.
func (p *Pool) Frames() int { return p.frames }

// Partitions reports the number of lock stripes.
func (p *Pool) Partitions() int { return len(p.parts) }
