// Package flash simulates a NAND flash SSD with a page-level FTL.
//
// The paper's evaluation hardware is the Intel X25-E SLC SSD. The simulator
// reproduces the properties the paper's argument rests on:
//
//   - read/write asymmetry: page reads are roughly an order of magnitude
//     faster than page programs, and block erases are slower still;
//   - erase-before-write: pages cannot be overwritten in place, so every
//     host overwrite of a logical page becomes an out-of-place program plus
//     (eventually) garbage-collection work — the mechanism that punishes
//     SI's small in-place invalidation updates and rewards SIAS's appends;
//   - internal parallelism: multiple channels serve requests concurrently;
//   - endurance: per-block erase counters expose wear.
//
// The FTL uses a page-granular logical-to-physical map with greedy victim
// selection (most invalid pages first) and a configurable GC threshold,
// following the standard design described in Agrawal et al. (USENIX 2008),
// which the paper cites for SSD design tradeoffs.
package flash

import (
	"fmt"
	"sync"

	"sias/internal/device"
	"sias/internal/simclock"
	"sias/internal/trace"
)

// Config describes the simulated SSD geometry and timing.
type Config struct {
	PageSize      int // bytes per flash page; DB pages map 1:1
	PagesPerBlock int // pages per erase block
	Blocks        int // total erase blocks (incl. over-provisioning)
	Channels      int // parallel channels
	OverProvision int // blocks reserved beyond the exported capacity
	ReadLatency   simclock.Duration
	WriteLatency  simclock.Duration
	EraseLatency  simclock.Duration
}

// DefaultConfig models an SLC enterprise SSD in the X25-E class:
// 25µs reads, 250µs programs, 1.5ms erases, 64-page blocks, 10 channels.
func DefaultConfig() Config {
	return Config{
		PageSize:      8192,
		PagesPerBlock: 64,
		Blocks:        2048,
		Channels:      10,
		OverProvision: 128,
		ReadLatency:   25 * simclock.Microsecond,
		WriteLatency:  250 * simclock.Microsecond,
		EraseLatency:  1500 * simclock.Microsecond,
	}
}

const (
	invalidPPN = int64(-1)
	// gcLowWater is the free-block floor: GC runs while fewer blocks are free.
	gcLowWater = 2
)

type block struct {
	erases    int64
	validCnt  int
	nextWrite int // next free page index within the block; PagesPerBlock = full
}

// SSD is a simulated flash device implementing device.BlockDevice.
type SSD struct {
	device.StatCounter
	cfg      Config
	channels *simclock.Resource
	tracer   *trace.Recorder

	mu        sync.Mutex
	l2p       []int64  // logical page -> physical page (invalidPPN if unwritten)
	p2l       []int64  // physical page -> logical page (invalidPPN if free/invalid)
	blocks    []block  // per-erase-block state
	freeList  []int    // blocks fully erased and unused
	active    int      // block currently absorbing writes
	data      [][]byte // logical page contents (stored logically: the FTL is a performance model, correctness of contents is independent of placement)
	exported  int64    // logical pages visible to the host
	gcErr     error
	relocated int64 // pages moved by GC (for write amplification)
}

// New creates an SSD. The exported capacity is
// (Blocks-OverProvision)*PagesPerBlock logical pages.
func New(cfg Config, tracer *trace.Recorder) *SSD {
	if cfg.PageSize <= 0 || cfg.PagesPerBlock <= 0 || cfg.Blocks <= 2 || cfg.Channels <= 0 {
		panic("flash: invalid config")
	}
	if cfg.OverProvision <= 0 {
		cfg.OverProvision = cfg.Blocks / 16
		if cfg.OverProvision < 2 {
			cfg.OverProvision = 2
		}
	}
	physPages := int64(cfg.Blocks) * int64(cfg.PagesPerBlock)
	exported := int64(cfg.Blocks-cfg.OverProvision) * int64(cfg.PagesPerBlock)
	s := &SSD{
		cfg:      cfg,
		channels: simclock.NewResource(cfg.Channels),
		tracer:   tracer,
		l2p:      make([]int64, exported),
		p2l:      make([]int64, physPages),
		blocks:   make([]block, cfg.Blocks),
		data:     make([][]byte, exported),
		exported: exported,
	}
	for i := range s.l2p {
		s.l2p[i] = invalidPPN
	}
	for i := range s.p2l {
		s.p2l[i] = invalidPPN
	}
	for b := cfg.Blocks - 1; b >= 1; b-- {
		s.freeList = append(s.freeList, b)
	}
	s.active = 0
	return s
}

// PageSize implements device.BlockDevice.
func (s *SSD) PageSize() int { return s.cfg.PageSize }

// NumPages implements device.BlockDevice.
func (s *SSD) NumPages() int64 { return s.exported }

// ReadPage implements device.BlockDevice.
func (s *SSD) ReadPage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if pageNo < 0 || pageNo >= s.exported {
		return at, device.ErrOutOfRange
	}
	if len(p) < s.cfg.PageSize {
		return at, fmt.Errorf("flash: read buffer %d < page size %d", len(p), s.cfg.PageSize)
	}
	s.mu.Lock()
	src := s.data[pageNo]
	s.mu.Unlock()
	if src == nil {
		for i := 0; i < s.cfg.PageSize; i++ {
			p[i] = 0
		}
	} else {
		copy(p, src)
	}
	done := s.channels.Acquire(at, s.cfg.ReadLatency)
	s.CountRead(s.cfg.PageSize, done.Sub(at))
	s.tracer.Record(done, trace.Read, pageNo, s.cfg.PageSize)
	return done, nil
}

// WritePage implements device.BlockDevice. Every host write is an
// out-of-place program; when free blocks run low the FTL garbage-collects,
// charging relocation reads/programs and an erase to the same virtual
// timeline as the host request (the "unpredictable performance outlier" the
// paper attributes to device GC).
func (s *SSD) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if pageNo < 0 || pageNo >= s.exported {
		return at, device.ErrOutOfRange
	}
	if len(p) < s.cfg.PageSize {
		return at, fmt.Errorf("flash: write buffer %d < page size %d", len(p), s.cfg.PageSize)
	}
	s.mu.Lock()
	// Store contents logically.
	buf := s.data[pageNo]
	if buf == nil {
		buf = make([]byte, s.cfg.PageSize)
		s.data[pageNo] = buf
	}
	copy(buf, p[:s.cfg.PageSize])

	extra, perr := s.programLocked(pageNo)
	s.mu.Unlock()
	if perr != nil {
		return at, perr
	}

	service := s.cfg.WriteLatency + extra
	done := s.channels.Acquire(at, service)
	s.CountWrite(s.cfg.PageSize, done.Sub(at))
	s.CountPhysWrite(1)
	s.tracer.Record(done, trace.Write, pageNo, s.cfg.PageSize)
	return done, nil
}

// programLocked performs the FTL bookkeeping for one out-of-place program of
// logical page pageNo and returns the extra virtual time consumed by any
// garbage collection it triggered. Caller holds s.mu.
func (s *SSD) programLocked(pageNo int64) (simclock.Duration, error) {
	var extra simclock.Duration
	// Invalidate the old physical location.
	if old := s.l2p[pageNo]; old != invalidPPN {
		ob := int(old / int64(s.cfg.PagesPerBlock))
		s.p2l[old] = invalidPPN
		s.blocks[ob].validCnt--
	}
	// Ensure the active block has room.
	if s.blocks[s.active].nextWrite >= s.cfg.PagesPerBlock {
		extra += s.advanceActiveLocked()
		if s.gcErr != nil || s.blocks[s.active].nextWrite >= s.cfg.PagesPerBlock {
			if s.gcErr == nil {
				s.gcErr = fmt.Errorf("flash: device full (no erasable blocks)")
			}
			return extra, s.gcErr
		}
	}
	b := &s.blocks[s.active]
	ppn := int64(s.active)*int64(s.cfg.PagesPerBlock) + int64(b.nextWrite)
	b.nextWrite++
	b.validCnt++
	s.l2p[pageNo] = ppn
	s.p2l[ppn] = pageNo
	return extra, nil
}

// advanceActiveLocked picks a new active block from the free list, running
// garbage collection if the list is too short. Returns virtual time spent.
func (s *SSD) advanceActiveLocked() simclock.Duration {
	var extra simclock.Duration
	for len(s.freeList) < gcLowWater {
		d, ok := s.gcOnceLocked()
		extra += d
		if !ok {
			break // no reclaimable block; device is truly full of valid data
		}
	}
	// GC relocation may have installed (and partially filled) a new active
	// block already; keep using it rather than abandoning its free space —
	// abandoned partials would silently shrink capacity until a spurious
	// device-full.
	if s.blocks[s.active].nextWrite < s.cfg.PagesPerBlock {
		return extra
	}
	if len(s.freeList) == 0 {
		// Capacity exhausted: model as a stall plus forced reclaim attempt.
		d, ok := s.gcOnceLocked()
		extra += d
		if !ok || len(s.freeList) == 0 {
			s.gcErr = fmt.Errorf("flash: device full (all %d blocks valid)", s.cfg.Blocks)
			return extra
		}
	}
	n := len(s.freeList) - 1
	s.active = s.freeList[n]
	s.freeList = s.freeList[:n]
	return extra
}

// gcOnceLocked erases the best victim block (greedy: fewest valid pages,
// excluding the active block), relocating its valid pages. Returns the
// virtual time consumed and whether a block was reclaimed.
func (s *SSD) gcOnceLocked() (simclock.Duration, bool) {
	victim := -1
	for i := range s.blocks {
		if i == s.active || s.blocks[i].nextWrite < s.cfg.PagesPerBlock {
			continue // only full blocks are victims
		}
		if victim == -1 || s.blocks[i].validCnt < s.blocks[victim].validCnt {
			victim = i
		}
	}
	if victim == -1 || s.blocks[victim].validCnt == s.cfg.PagesPerBlock {
		return 0, false // nothing reclaimable
	}
	var extra simclock.Duration
	base := int64(victim) * int64(s.cfg.PagesPerBlock)
	for i := 0; i < s.cfg.PagesPerBlock; i++ {
		ppn := base + int64(i)
		lpn := s.p2l[ppn]
		if lpn == invalidPPN {
			continue
		}
		// Relocate: read + program on the device's own time.
		extra += s.cfg.ReadLatency + s.cfg.WriteLatency
		s.p2l[ppn] = invalidPPN
		s.blocks[victim].validCnt--
		s.relocated++
		s.CountPhysWrite(1)
		// Program into active block (recursing into advance if needed).
		if s.blocks[s.active].nextWrite >= s.cfg.PagesPerBlock {
			// Mid-GC active exhaustion: steal straight from free list;
			// guaranteed progress because we free victim below.
			if n := len(s.freeList); n > 0 {
				s.active = s.freeList[n-1]
				s.freeList = s.freeList[:n-1]
			} else {
				return extra, false
			}
		}
		b := &s.blocks[s.active]
		nppn := int64(s.active)*int64(s.cfg.PagesPerBlock) + int64(b.nextWrite)
		b.nextWrite++
		b.validCnt++
		s.l2p[lpn] = nppn
		s.p2l[nppn] = lpn
	}
	s.blocks[victim].nextWrite = 0
	s.blocks[victim].erases++
	s.blocks[victim].validCnt = 0
	s.freeList = append(s.freeList, victim)
	s.CountErase(1)
	extra += s.cfg.EraseLatency
	return extra, true
}

// Err reports a sticky device-full condition, if any.
func (s *SSD) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcErr
}

// Wear summarizes endurance state: total and max per-block erase counts.
type Wear struct {
	TotalErases int64
	MaxErases   int64
	MeanErases  float64
	Relocated   int64 // pages moved by device GC
}

// Wear returns the endurance snapshot. The paper argues SIAS improves
// endurance by reducing erases; this is the observable.
func (s *SSD) Wear() Wear {
	s.mu.Lock()
	defer s.mu.Unlock()
	var w Wear
	for i := range s.blocks {
		e := s.blocks[i].erases
		w.TotalErases += e
		if e > w.MaxErases {
			w.MaxErases = e
		}
	}
	w.MeanErases = float64(w.TotalErases) / float64(len(s.blocks))
	w.Relocated = s.relocated
	return w
}

var _ device.BlockDevice = (*SSD)(nil)
