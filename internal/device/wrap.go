package device

import (
	"sync/atomic"
	"time"

	"sias/internal/simclock"
)

// Wrap decorates an inner BlockDevice with wall-clock latency injection and
// a per-read hook. It is the test stand-in for a slow device: virtual-time
// latencies (Mem, File) model cost in the simulation arithmetic, but only a
// real time.Sleep makes a lock held across a read hurt on the wall clock —
// which is exactly what the async-miss-path tests and the slow-device
// smoke (engine's TestSlowDeviceColdScan) need to observe. The hook doubles
// as a fault injector (fail the Nth read) and a gate (block one read while
// asserting another proceeds).
//
// Configure ReadDelay/WriteDelay and the hook before sharing the device;
// they are not synchronized against in-flight operations.
type Wrap struct {
	inner      BlockDevice
	ReadDelay  time.Duration
	WriteDelay time.Duration

	// onRead runs before each read op; pageNo is the first page and n the
	// page count (1 for ReadPage). Returning an error fails the op without
	// touching the inner device.
	onRead func(pageNo int64, n int) error

	// onWrite runs before each write op; pageNo is the page of the first
	// byte written (a WriteRange may go on into later pages). Returning an
	// error fails the op without touching the inner device — the write-side
	// fault injector (e.g. fail a 2PC commit-decision flush).
	onWrite func(pageNo int64) error

	readOps  atomic.Int64 // host read ops (batched = 1)
	batchOps atomic.Int64 // read ops served via ReadPages with n > 1
}

// NewWrap wraps inner with zero delays and no hook.
func NewWrap(inner BlockDevice) *Wrap { return &Wrap{inner: inner} }

// SetReadHook installs fn; call before the device is shared.
func (w *Wrap) SetReadHook(fn func(pageNo int64, n int) error) { w.onRead = fn }

// SetWriteHook installs fn; call before the device is shared.
func (w *Wrap) SetWriteHook(fn func(pageNo int64) error) { w.onWrite = fn }

// ReadOps reports host read operations issued to the inner device.
func (w *Wrap) ReadOps() int64 { return w.readOps.Load() }

// BatchOps reports how many of those were coalesced multi-page reads.
func (w *Wrap) BatchOps() int64 { return w.batchOps.Load() }

// ReadPage implements BlockDevice.
func (w *Wrap) ReadPage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if w.onRead != nil {
		if err := w.onRead(pageNo, 1); err != nil {
			return at, err
		}
	}
	if w.ReadDelay > 0 {
		time.Sleep(w.ReadDelay)
	}
	w.readOps.Add(1)
	return w.inner.ReadPage(at, pageNo, p)
}

// ReadPages implements PageRangeReader, delegating to the inner device's
// fast path when it has one and looping otherwise. The delay is charged
// once per batch either way — that is the coalescing win being modelled.
func (w *Wrap) ReadPages(at simclock.Time, pageNo int64, n int, p []byte) (simclock.Time, error) {
	if w.onRead != nil {
		if err := w.onRead(pageNo, n); err != nil {
			return at, err
		}
	}
	if w.ReadDelay > 0 {
		time.Sleep(w.ReadDelay)
	}
	w.readOps.Add(1)
	if n > 1 {
		w.batchOps.Add(1)
	}
	if rr, ok := w.inner.(PageRangeReader); ok {
		return rr.ReadPages(at, pageNo, n, p)
	}
	ps := w.inner.PageSize()
	t := at
	for i := 0; i < n; i++ {
		var err error
		t, err = w.inner.ReadPage(t, pageNo+int64(i), p[i*ps:(i+1)*ps])
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// WritePage implements BlockDevice.
func (w *Wrap) WritePage(at simclock.Time, pageNo int64, p []byte) (simclock.Time, error) {
	if w.onWrite != nil {
		if err := w.onWrite(pageNo); err != nil {
			return at, err
		}
	}
	if w.WriteDelay > 0 {
		time.Sleep(w.WriteDelay)
	}
	return w.inner.WritePage(at, pageNo, p)
}

// WriteRange implements RangeWriter over an inner device that has the path;
// RangeWriterOf hands out a Wrap only then. Hook and delay apply once per
// range, as they do once per ReadPages batch.
func (w *Wrap) WriteRange(at simclock.Time, off int64, p []byte) (simclock.Time, error) {
	if w.onWrite != nil {
		if err := w.onWrite(off / int64(w.inner.PageSize())); err != nil {
			return at, err
		}
	}
	if w.WriteDelay > 0 {
		time.Sleep(w.WriteDelay)
	}
	return w.inner.(RangeWriter).WriteRange(at, off, p)
}

// PageSize implements BlockDevice.
func (w *Wrap) PageSize() int { return w.inner.PageSize() }

// NumPages implements BlockDevice.
func (w *Wrap) NumPages() int64 { return w.inner.NumPages() }

// Stats implements BlockDevice.
func (w *Wrap) Stats() Stats { return w.inner.Stats() }

// ResetStats implements BlockDevice.
func (w *Wrap) ResetStats() { w.inner.ResetStats() }

var (
	_ BlockDevice     = (*Wrap)(nil)
	_ PageRangeReader = (*Wrap)(nil)
)
