package device

import (
	"fmt"
	"os"

	"sias/internal/simclock"
)

// File is a page-addressed block device backed by a real file. It gives the
// network server (cmd/siasserver) durable state that survives process
// restarts: the WAL and heap written here are re-scanned by engine recovery
// on the next start. It charges no virtual time: the bytes land on the host
// filesystem, whose cost is paid on the wall clock.
type File struct {
	StatCounter
	f           *os.File
	pageSize    int
	numPages    int64
	syncOnWrite bool
}

// OpenFile opens (creating if absent) a file-backed device of numPages pages.
// The file is sparse; unwritten pages read as zeros, matching Mem.
func OpenFile(path string, pageSize int, numPages int64) (*File, error) {
	if pageSize <= 0 || numPages <= 0 {
		return nil, fmt.Errorf("device: invalid File geometry %d x %d", pageSize, numPages)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: open %s: %w", path, err)
	}
	return &File{f: f, pageSize: pageSize, numPages: numPages}, nil
}

// SetSyncOnWrite makes every write operation (WritePage, WriteRange) fsync
// before it returns, so bytes acknowledged as written really are on stable
// storage — the right setting for a WAL device serving live traffic, and the
// regime in which group commit pays: a WAL flush is one WriteRange, so the
// fsync cost is paid once per batch instead of once per transaction.
func (d *File) SetSyncOnWrite(sync bool) { d.syncOnWrite = sync }

// PageSize implements BlockDevice.
func (d *File) PageSize() int { return d.pageSize }

// NumPages implements BlockDevice.
func (d *File) NumPages() int64 { return d.numPages }

// ReadPage implements BlockDevice.
func (d *File) ReadPage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if pageNo < 0 || pageNo >= d.numPages {
		return at, ErrOutOfRange
	}
	if len(p) < d.pageSize {
		return at, fmt.Errorf("device: read buffer %d < page size %d", len(p), d.pageSize)
	}
	n, err := d.f.ReadAt(p[:d.pageSize], pageNo*int64(d.pageSize))
	if err != nil && n < d.pageSize {
		// Short or absent tail: the rest of the page was never written.
		for i := n; i < d.pageSize; i++ {
			p[i] = 0
		}
	}
	d.CountRead(d.pageSize, 0)
	return at, nil
}

// ReadPages implements PageRangeReader: n consecutive pages in one pread.
// This is the prefetcher's coalescing target — one syscall and one latency
// charge instead of n.
func (d *File) ReadPages(at simclock.Time, pageNo int64, n int, p []byte) (simclock.Time, error) {
	if n <= 0 {
		return at, fmt.Errorf("device: ReadPages of %d pages", n)
	}
	if pageNo < 0 || pageNo+int64(n) > d.numPages {
		return at, ErrOutOfRange
	}
	size := n * d.pageSize
	if len(p) < size {
		return at, fmt.Errorf("device: read buffer %d < %d pages", len(p), n)
	}
	nn, err := d.f.ReadAt(p[:size], pageNo*int64(d.pageSize))
	if err != nil && nn < size {
		// Short or absent tail: the rest was never written.
		for i := nn; i < size; i++ {
			p[i] = 0
		}
	}
	d.CountRead(size, 0)
	return at, nil
}

// WritePage implements BlockDevice.
func (d *File) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if pageNo < 0 || pageNo >= d.numPages {
		return at, ErrOutOfRange
	}
	if len(p) < d.pageSize {
		return at, fmt.Errorf("device: write buffer %d < page size %d", len(p), d.pageSize)
	}
	return d.WriteRange(at, pageNo*int64(d.pageSize), p[:d.pageSize])
}

// WriteRange implements RangeWriter: p at byte offset off in one pwrite, and
// under SetSyncOnWrite one fsync however many pages the range spans.
func (d *File) WriteRange(at simclock.Time, off int64, p []byte) (simclock.Time, error) {
	if off < 0 || off+int64(len(p)) > d.numPages*int64(d.pageSize) {
		return at, ErrOutOfRange
	}
	if _, err := d.f.WriteAt(p, off); err != nil {
		return at, fmt.Errorf("device: write %d bytes at %d: %w", len(p), off, err)
	}
	if d.syncOnWrite {
		if err := d.Sync(); err != nil {
			return at, fmt.Errorf("device: sync %d bytes at %d: %w", len(p), off, err)
		}
	}
	d.CountWrite(len(p), 0)
	return at, nil
}

// Sync flushes the file to stable storage.
func (d *File) Sync() error {
	d.CountSync()
	return d.f.Sync()
}

// Close syncs and closes the backing file.
func (d *File) Close() error {
	if err := d.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

var (
	_ BlockDevice     = (*File)(nil)
	_ PageRangeReader = (*File)(nil)
	_ RangeWriter     = (*File)(nil)
)
