// Package device defines the block-device abstraction shared by the
// simulated storage backends (flash SSDs, HDDs) and composition layers
// (RAID-0 striping), together with uniform I/O statistics.
//
// All devices operate in virtual time (see internal/simclock): an operation
// takes the caller's current virtual time and returns the virtual time at
// which the operation completes, after queueing behind earlier requests on
// the same internal resource (flash channel, disk head).
package device

import (
	"errors"
	"fmt"
	"sync"

	"sias/internal/simclock"
)

// ErrOutOfRange is returned when a page number is outside the device.
var ErrOutOfRange = errors.New("device: page number out of range")

// BlockDevice is a page-addressed storage device in virtual time.
//
// ReadPage and WritePage transfer exactly PageSize bytes. Both return the
// virtual completion time of the operation; implementations account queueing
// delay behind concurrent requests.
type BlockDevice interface {
	// ReadPage reads page pageNo into p (len(p) >= PageSize).
	ReadPage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error)
	// WritePage writes p (len(p) >= PageSize) to page pageNo.
	WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error)
	// PageSize is the fixed page size in bytes.
	PageSize() int
	// NumPages is the device capacity in pages.
	NumPages() int64
	// Stats returns a snapshot of accumulated I/O statistics.
	Stats() Stats
	// ResetStats zeroes the accumulated statistics (traces are separate).
	ResetStats()
}

// PageRangeReader is the optional batched-read fast path: devices that can
// serve several consecutive pages in one host operation (a single pread on
// file-backed storage) implement it, and the buffer pool's prefetcher
// coalesces adjacent pages onto it. Semantically equivalent to n ReadPage
// calls for pages [pageNo, pageNo+n); p holds n*PageSize bytes. Counts as
// one host read of n pages in Stats.
type PageRangeReader interface {
	ReadPages(at simclock.Time, pageNo int64, n int, p []byte) (simclock.Time, error)
}

// RangeWriter is the optional byte-range write path, the write twin of
// PageRangeReader: devices that can store an arbitrary byte range in one host
// operation (a single pwrite on file-backed storage) implement it, and the
// WAL flushes only the sectors that gained bytes through it instead of
// rewriting whole pages. p lands at byte offset off, which with len(p) must
// stay inside the device; bytes around the range keep their content. Counts
// as one host write of len(p) bytes in Stats. Callers find it with
// RangeWriterOf, never by a type assertion of their own: a decorator has the
// path only when what it decorates has it.
type RangeWriter interface {
	WriteRange(at simclock.Time, off int64, p []byte) (simclock.Time, error)
}

// RangeWriterOf returns dev's byte-range write path, if it has one.
func RangeWriterOf(dev BlockDevice) (RangeWriter, bool) {
	if w, ok := dev.(*Wrap); ok {
		if _, ok := RangeWriterOf(w.inner); !ok {
			return nil, false
		}
		return w, true
	}
	rw, ok := dev.(RangeWriter)
	return rw, ok
}

// Stats aggregates host-visible I/O issued to a device.
type Stats struct {
	Reads        int64             `metric:"sias_device_reads_total,counter" help:"Host page reads."`
	Writes       int64             `metric:"sias_device_writes_total,counter" help:"Host write operations."`
	BytesRead    int64             `metric:"sias_device_read_bytes_total,counter" help:"Host bytes read."`
	BytesWritten int64             `metric:"sias_device_written_bytes_total,counter" help:"Host bytes written."`
	ReadTime     simclock.Duration `metric:"-,counter"` // summed service+queue time of reads
	WriteTime    simclock.Duration `metric:"-,counter"`
	Syncs        int64             `metric:"sias_device_syncs_total,counter" help:"Host syncs to stable storage (fsync; 0 on simulated devices)."`

	// Flash-internal accounting; zero for non-flash devices.
	PhysWrites int64 `metric:"sias_device_phys_writes_total,counter" help:"Physical page programs including flash GC relocation (0 off flash)."`
	Erases     int64 `metric:"sias_device_erases_total,counter" help:"Flash block erases."`
}

// WrittenMB reports host write volume in MB (2^20 bytes).
func (s Stats) WrittenMB() float64 { return float64(s.BytesWritten) / (1 << 20) }

// ReadMB reports host read volume in MB.
func (s Stats) ReadMB() float64 { return float64(s.BytesRead) / (1 << 20) }

// WriteAmplification is physical page programs per host page write.
// Returns 0 when no host writes occurred or the device is not flash.
func (s Stats) WriteAmplification() float64 {
	if s.Writes == 0 || s.PhysWrites == 0 {
		return 0
	}
	return float64(s.PhysWrites) / float64(s.Writes)
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d (%.1fMB) writes=%d (%.1fMB) physWrites=%d erases=%d WA=%.2f",
		s.Reads, s.ReadMB(), s.Writes, s.WrittenMB(), s.PhysWrites, s.Erases, s.WriteAmplification())
}

// StatCounter is embedded by device implementations to accumulate Stats
// under a mutex.
type StatCounter struct {
	mu sync.Mutex
	s  Stats
}

// CountRead records one host read of n bytes taking d of virtual time.
func (c *StatCounter) CountRead(n int, d simclock.Duration) {
	c.mu.Lock()
	c.s.Reads++
	c.s.BytesRead += int64(n)
	c.s.ReadTime += d
	c.mu.Unlock()
}

// CountWrite records one host write of n bytes taking d of virtual time.
func (c *StatCounter) CountWrite(n int, d simclock.Duration) {
	c.mu.Lock()
	c.s.Writes++
	c.s.BytesWritten += int64(n)
	c.s.WriteTime += d
	c.mu.Unlock()
}

// CountSync records one host sync to stable storage.
func (c *StatCounter) CountSync() {
	c.mu.Lock()
	c.s.Syncs++
	c.mu.Unlock()
}

// CountPhysWrite records device-internal page programs.
func (c *StatCounter) CountPhysWrite(n int64) {
	c.mu.Lock()
	c.s.PhysWrites += n
	c.mu.Unlock()
}

// CountErase records device-internal block erases.
func (c *StatCounter) CountErase(n int64) {
	c.mu.Lock()
	c.s.Erases += n
	c.mu.Unlock()
}

// Stats returns a snapshot.
func (c *StatCounter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// ResetStats zeroes the counters.
func (c *StatCounter) ResetStats() {
	c.mu.Lock()
	c.s = Stats{}
	c.mu.Unlock()
}
