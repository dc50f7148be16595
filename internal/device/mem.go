package device

import (
	"fmt"
	"sync"

	"sias/internal/simclock"
)

// Mem is an in-memory block device with fixed (possibly zero) latencies.
// It exists for unit tests and for experiments that want to isolate the
// algorithmic behaviour from any device cost model. A page takes memory once
// a write puts a nonzero byte in it.
type Mem struct {
	StatCounter
	pageSize int
	numPages int64
	readLat  simclock.Duration
	writeLat simclock.Duration

	mu   sync.Mutex
	data map[int64][]byte
}

// NewMem returns a memory device of numPages pages with zero latency.
func NewMem(pageSize int, numPages int64) *Mem {
	return NewMemLatency(pageSize, numPages, 0, 0)
}

// NewMemLatency returns a memory device with fixed per-op latencies.
func NewMemLatency(pageSize int, numPages int64, readLat, writeLat simclock.Duration) *Mem {
	if pageSize <= 0 || numPages <= 0 {
		panic("device: invalid Mem geometry")
	}
	return &Mem{
		pageSize: pageSize,
		numPages: numPages,
		readLat:  readLat,
		writeLat: writeLat,
		data:     make(map[int64][]byte),
	}
}

// PageSize implements BlockDevice.
func (m *Mem) PageSize() int { return m.pageSize }

// NumPages implements BlockDevice.
func (m *Mem) NumPages() int64 { return m.numPages }

// ReadPage implements BlockDevice.
func (m *Mem) ReadPage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if pageNo < 0 || pageNo >= m.numPages {
		return at, ErrOutOfRange
	}
	if len(p) < m.pageSize {
		return at, fmt.Errorf("device: read buffer %d < page size %d", len(p), m.pageSize)
	}
	// Copy under the lock: a concurrent WritePage mutates the stored buffer
	// in place, so reading it outside the lock would race (a WAL tail reader
	// legitimately reads pages the writer is re-flushing).
	m.mu.Lock()
	if src := m.data[pageNo]; src == nil {
		for i := 0; i < m.pageSize; i++ {
			p[i] = 0
		}
	} else {
		copy(p, src)
	}
	m.mu.Unlock()
	done := at.Add(m.readLat)
	m.CountRead(m.pageSize, m.readLat)
	return done, nil
}

// ReadPages implements PageRangeReader: n consecutive pages as one host
// read, latency charged once.
func (m *Mem) ReadPages(at simclock.Time, pageNo int64, n int, p []byte) (simclock.Time, error) {
	if n <= 0 {
		return at, fmt.Errorf("device: ReadPages of %d pages", n)
	}
	if pageNo < 0 || pageNo+int64(n) > m.numPages {
		return at, ErrOutOfRange
	}
	size := n * m.pageSize
	if len(p) < size {
		return at, fmt.Errorf("device: read buffer %d < %d pages", len(p), n)
	}
	m.mu.Lock()
	for i := 0; i < n; i++ {
		dst := p[i*m.pageSize : (i+1)*m.pageSize]
		if src := m.data[pageNo+int64(i)]; src == nil {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, src)
		}
	}
	m.mu.Unlock()
	done := at.Add(m.readLat)
	m.CountRead(size, m.readLat)
	return done, nil
}

// WritePage implements BlockDevice.
func (m *Mem) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if pageNo < 0 || pageNo >= m.numPages {
		return at, ErrOutOfRange
	}
	if len(p) < m.pageSize {
		return at, fmt.Errorf("device: write buffer %d < page size %d", len(p), m.pageSize)
	}
	m.mu.Lock()
	if buf := m.data[pageNo]; buf != nil {
		copy(buf, p[:m.pageSize])
	} else if !allZeros(p[:m.pageSize]) { // an unwritten page reads as zeros: store none
		m.data[pageNo] = append([]byte(nil), p[:m.pageSize]...)
	}
	m.mu.Unlock()
	done := at.Add(m.writeLat)
	m.CountWrite(m.pageSize, m.writeLat)
	return done, nil
}

func allZeros(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

var (
	_ BlockDevice     = (*Mem)(nil)
	_ PageRangeReader = (*Mem)(nil)
)
