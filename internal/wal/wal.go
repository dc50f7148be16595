// Package wal implements a physiological write-ahead log with group commit
// and a sequential recovery scanner.
//
// The paper notes (Section 6, Recovery) that SIAS does not impinge on the
// MV-DBMS's inherent WAL-based recovery: the append threshold only delays
// when data pages reach stable storage, while the WAL continues to guarantee
// durability. Both engines here share this WAL. Records are length-prefixed
// and CRC-framed in a byte stream that is laid out in device pages. On a
// device with a byte-range write path a flush writes only the 512-byte
// sectors that gained bytes, so the log appends like the version store it
// protects; on the simulated page devices the tail page is rewritten as it
// fills. Both leave the same image (see Flush and window).
//
// SIAS data structures (the VIDmap and per-relation append state) are NOT
// logged: as in the paper, everything needed to reconstruct them is stored
// on the tuple versions themselves, and recovery rebuilds the VIDmap by
// scanning relations.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"time"

	"sias/internal/device"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/simclock"
	"sias/internal/txn"
)

// RecType enumerates WAL record kinds.
type RecType uint8

// WAL record kinds.
const (
	// RecCommit marks a transaction committed; its presence decides winners
	// during recovery.
	RecCommit RecType = iota + 1
	// RecAbort marks a transaction rolled back.
	RecAbort
	// RecHeapInsert carries the after-image of a newly stored tuple version
	// (an append under SIAS, an insert-into-free-space under SI).
	RecHeapInsert
	// RecHeapOverwrite carries the after-image of an in-place tuple
	// overwrite (SI's invalidation of xmax / ctid).
	RecHeapOverwrite
	// RecHeapDead records a slot marked dead by vacuum/GC.
	RecHeapDead
	// RecAllocExtent records a space-manager extent grant so recovery can
	// rebuild the relation-block-to-device-page mapping deterministically.
	RecAllocExtent
	// RecCheckpoint marks a checkpoint (all dirty pages flushed up to LSN).
	RecCheckpoint
	// RecDDL carries a catalog change (create/drop table or index) encoded
	// by internal/catalog. Replayed by recovery before any heap redo and
	// shipped to replication followers like any other record, so schema is
	// durable and consistent across crash and failover.
	RecDDL
	// RecPrepare marks a participant in a cross-shard (2PC) transaction as
	// prepared: its heap records are durable and it will commit or abort
	// according to the coordinator's decision. Tx is the participant's local
	// sub-transaction id, Aux the write-set fingerprint, Data the encoded
	// global id + coordinator shard (EncodePrepareData).
	RecPrepare
	// RecDecide is the coordinator's durable commit/abort decision for a
	// cross-shard transaction — the 2PC commit point. Tx is the coordinator's
	// local sub-transaction id, Aux the global transaction id, Data a single
	// commit/abort byte (EncodeDecideData).
	RecDecide
	// RecTraceCtx links a transaction's WAL records to a distributed trace:
	// Tx is the local transaction id, Aux the trace id. Appended unflushed on
	// the primary for sampled commits (it rides the commit's own flush) and
	// purely advisory: recovery and replica apply ignore it, while a
	// follower's replication loop uses it to record an apply span under the
	// originating request's trace id.
	RecTraceCtx
)

func (t RecType) String() string {
	switch t {
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecHeapInsert:
		return "heap-insert"
	case RecHeapOverwrite:
		return "heap-overwrite"
	case RecHeapDead:
		return "heap-dead"
	case RecAllocExtent:
		return "alloc-extent"
	case RecCheckpoint:
		return "checkpoint"
	case RecDDL:
		return "ddl"
	case RecPrepare:
		return "prepare"
	case RecDecide:
		return "decide"
	case RecTraceCtx:
		return "trace-ctx"
	}
	return "unknown"
}

// LSN is a byte offset into the log stream.
type LSN uint64

// Record is one WAL entry.
type Record struct {
	Type RecType
	Tx   txn.ID
	Rel  uint32
	TID  page.TID
	Aux  uint64 // record-specific: extent base page, checkpoint redo LSN, ...
	Data []byte // tuple after-image for heap records
}

// header: crc(4) len(4) type(1) tx(8) rel(4) tid(6) aux(8) = 35 bytes
const recHeaderSize = 4 + 4 + 1 + 8 + 4 + page.TIDSize + 8

// maxRecordSize bounds one encoded record. A heap after-image takes at most
// a page's largest tuple plus the header (8,199 B at the default page size)
// and a create-table record stays under 70 KB (catalog.MaxCols), so anything
// claiming to be larger is corruption — the bound lets the scanner
// classify a garbage length field as corrupt instead of waiting forever for
// bytes that will never arrive. Append refuses a longer record, which Scan
// would end the log at, and a resumed writer zeroes this much past its
// window (see window).
const maxRecordSize = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeRecord frames r as it appears in the log stream. The encoding is
// deterministic, which is what lets a replication follower re-append
// received records and keep its log byte-identical to the primary's.
func EncodeRecord(r *Record) []byte {
	return appendRecord(make([]byte, 0, recHeaderSize+len(r.Data)), r)
}

// appendRecord appends r's framing to dst: the bytes EncodeRecord returns,
// written in place, so Append encodes straight into the pending tail.
func appendRecord(dst []byte, r *Record) []byte {
	n := recHeaderSize + len(r.Data)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	b[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(b[9:], uint64(r.Tx))
	binary.LittleEndian.PutUint32(b[17:], r.Rel)
	page.EncodeTID(b[21:], r.TID)
	binary.LittleEndian.PutUint64(b[27:], r.Aux)
	copy(b[recHeaderSize:], r.Data)
	binary.LittleEndian.PutUint32(b[0:], crc32.Checksum(b[4:], castagnoli))
	return dst
}

// ErrEndOfLog is returned by the scanner at the end of valid records.
var ErrEndOfLog = errors.New("wal: end of log")

// ErrLogFull is returned by Flush when the bytes to write would run past the
// end of the log device. The flush writes nothing, the records stay buffered
// and every later flush fails the same way. It wraps device.ErrOutOfRange.
var ErrLogFull = fmt.Errorf("wal: log device full: %w", device.ErrOutOfRange)

// sectorSize is the unit of a range-path flush: a write starts and ends on a
// multiple of it, so no write ever splits a sector with an earlier one.
const sectorSize = 512

// window is, in pages, the most one device write of the log covers (256 KB at
// the default page size, a scan run). A writer that continues an existing log
// (NewWriterResume) zeroes, before its first record, from the recovered end to
// window pages plus maxRecordSize past the page boundary at or after it
// (1.25 MB at the default page size).
//
// With both rules a flush need not write past the sector that holds the
// stream end, because every byte past the end of the intact records is zero:
//   - The log is never recycled, so nothing past the furthest write the
//     device has seen was ever written.
//   - SIGKILL leaves no debris: every write the process issued is whole in
//     the page cache.
//   - Power loss under SetSyncOnWrite can tear only the last write, since
//     every earlier one was synced before it began, and that write is at
//     most window pages long. A flush's first write begins in the sector of
//     the durable LSN, at or below the recovered end. Each later one begins
//     on a page boundary with every record before that boundary intact, so
//     the recovered end reaches at least the start of the record that
//     straddles it, which is less than maxRecordSize before the boundary
//     (Append holds every record to it). So the torn write begins less than
//     maxRecordSize past the recovered end, and ends inside what the resumed
//     writer zeroes: window pages, plus maxRecordSize rounded up to pages,
//     past the page boundary at or after the recovered end.
//
// So the log on the device is always one stream, its longest intact prefix:
// Scan ends at the first bytes that do not decode, and a restart writes on
// from exactly there. A fresh log (NewWriter) has no debris and zeroes
// nothing. A recycled one would have to zero its window on every reuse, or
// records would need a generation id; the log is not recycled.
const window = scanRun

// Decode failures split into two classes so the scanner can tell "wait for
// the rest of the page" from "these bytes can never become a record":
// errNeedMore means the (plausible) record extends past the available bytes;
// errCorrupt means the framing itself is invalid — a length below the header
// size (zeros past the end read as one), a length above maxRecordSize, or a
// CRC mismatch over a fully-available record.
var (
	errNeedMore = errors.New("wal: record needs more bytes")
	errCorrupt  = errors.New("wal: corrupt record framing")
)

// DecodeRecord parses one framed record from the head of b, returning the
// record and its encoded length. It fails with errNeedMore when b is a
// plausible prefix of a record, and errCorrupt when the bytes can never
// decode (zeros past the end, garbage, or a torn tail with all its bytes
// present).
//
// The record's Data aliases b, capacity-capped so an append to it cannot
// spill into the next record: callers must not rewrite b while they hold it.
// Scan rewrites its buffer only after fn has returned (so Data lives as long
// as that call), ReadBatch copies the record's bytes out, and a replication
// follower decodes a frame nobody reuses.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, errNeedMore
	}
	length := int(binary.LittleEndian.Uint32(b[4:]))
	if length < recHeaderSize || length > maxRecordSize {
		return Record{}, 0, errCorrupt
	}
	if length > len(b) {
		return Record{}, 0, errNeedMore
	}
	crc := binary.LittleEndian.Uint32(b[0:])
	if crc32.Checksum(b[4:length], castagnoli) != crc {
		return Record{}, 0, errCorrupt // torn tail or stale debris
	}
	r := Record{
		Type: RecType(b[8]),
		Tx:   txn.ID(binary.LittleEndian.Uint64(b[9:])),
		Rel:  binary.LittleEndian.Uint32(b[17:]),
		TID:  page.DecodeTID(b[21:]),
		Aux:  binary.LittleEndian.Uint64(b[27:]),
	}
	if length > recHeaderSize {
		r.Data = b[recHeaderSize:length:length]
	}
	return r, length, nil
}

// Writer appends records to an in-memory tail and flushes it to the log
// device. Safe for concurrent use.
//
// Appends take only the short buffer latch (mu), so they never wait on log
// I/O. Flush is the log's group commit: one caller at a time writes, and a
// caller that finds a write in flight waits for it at the flush gate, which
// appenders never take. It returns as soon as its LSN is durable; otherwise
// the first waiter still uncovered writes everything appended so far. So M
// concurrent committers share far fewer than M device writes, and a write
// overlaps the appends the next one carries.
type Writer struct {
	dev      device.BlockDevice
	pageSize int
	// rw is the device's byte-range write path; nil selects the whole-page
	// loop, which every simulated device takes.
	rw device.RangeWriter
	// tailBuf, owned by the writing caller, assembles what a write hands the
	// device that pending does not hold as it lies: the zero-padded tail page
	// (page path) or the last write of a range, padded to its sector (range
	// path).
	tailBuf []byte

	// The flush gate: flushing is set while a caller writes, and flushed is
	// broadcast (over gate) when it stops.
	gate     sync.Mutex
	flushed  sync.Cond
	flushing bool

	mu         sync.Mutex // buffer latch: never held across device I/O
	pending    []byte     // bytes not yet written to the device
	pendingOff LSN        // stream offset of pending[0]
	nextLSN    LSN
	durable    LSN
	fullSynced int64 // count of pages flushes wrote into
	commits    int   // RecCommit records appended since the last snapshot

	// Wall-clock duration instruments (nil = not collected). Set once at
	// assembly time via SetDurationMetrics, before the writer is shared.
	appendHist *obs.Histogram
	flushHist  *obs.Histogram
}

// SetDurationMetrics attaches wall-clock latency histograms: appendH
// observes each Append (buffer copy under the latch, including latch
// wait), flushH observes each Flush that reached the device (the write
// plus fsync, including the wait to become the flusher — the durability
// latency a committing transaction actually experiences). Must be called
// before the writer is shared between goroutines.
func (w *Writer) SetDurationMetrics(appendH, flushH *obs.Histogram) {
	w.appendHist = appendH
	w.flushHist = flushH
}

// NewWriter returns a writer that begins a fresh log on dev, at stream offset
// 0. The device must hold no earlier log: nothing past the stream end is
// zeroed (see window).
func NewWriter(dev device.BlockDevice) *Writer {
	w := &Writer{dev: dev, pageSize: dev.PageSize()}
	w.flushed.L = &w.gate
	if rw, ok := device.RangeWriterOf(dev); ok && w.pageSize%sectorSize == 0 {
		w.rw = rw
	}
	return w
}

// NewWriterResume returns a writer that continues an existing log whose
// intact records end exactly at end, the end Scan returns. The partial tail
// page is reloaded from the device first, since a flush writes from the start
// of the page (page path) or of the sector (range path) that holds the
// durable LSN; otherwise that flush would zero the bytes before end. Before it
// returns it zeroes the window from end (see window), whatever a torn write
// left there. Every restart resumes this way, so a replication follower's log
// stays byte-identical to its primary's.
func NewWriterResume(dev device.BlockDevice, end LSN) (*Writer, error) {
	w := NewWriter(dev)
	ps := LSN(w.pageSize)
	w.pendingOff, w.nextLSN, w.durable = end/ps*ps, end, end
	if end > w.pendingOff {
		buf := make([]byte, ps)
		if _, err := dev.ReadPage(0, int64(w.pendingOff/ps), buf); err != nil {
			return nil, fmt.Errorf("wal: resume read tail page: %w", err)
		}
		w.pending = buf[:end-w.pendingOff]
	}
	return w, w.zeroWindow(end)
}

// zeroWindow writes zeros from end, where the intact records stop, to window
// pages and maxRecordSize, rounded up to pages, past the page boundary at or
// after it (or to the device end), keeping the stream bytes pending holds
// before end. It is a new writer's first write.
func (w *Writer) zeroWindow(end LSN) error {
	ps := LSN(w.pageSize)
	to := min((end+ps-1)/ps*ps+window*ps+(maxRecordSize+ps-1)/ps*ps, LSN(w.dev.NumPages())*ps)
	if to <= end {
		return nil
	}
	var err error
	if w.rw != nil {
		_, err = w.writeSectors(0, w.pending, w.pendingOff, end&^(sectorSize-1), to)
	} else {
		_, err = w.writePages(0, w.pending, int64(w.pendingOff/ps), int64((to-1)/ps))
	}
	if err != nil {
		return fmt.Errorf("wal: zero the log past %d: %w", end, err)
	}
	return nil
}

// Append buffers a record and returns the LSN just past it. The record is
// not durable until Flush reaches that LSN. It frames r straight into the
// pending tail under the buffer latch and keeps nothing of r: r.Data may
// alias memory the caller rewrites once Append returns (core appends a
// version's page slot, under the frame latch).
func (w *Writer) Append(r *Record) LSN {
	var t0 time.Time
	if w.appendHist != nil {
		t0 = time.Now()
	}
	n := recHeaderSize + len(r.Data)
	if n > maxRecordSize {
		panic(fmt.Sprintf("wal: a %d-byte %s record is longer than the %d bytes a record may take", n, r.Type, maxRecordSize))
	}
	w.mu.Lock()
	w.pending = appendRecord(w.pending, r)
	w.nextLSN += LSN(n)
	if r.Type == RecCommit {
		w.commits++
	}
	lsn := w.nextLSN
	w.mu.Unlock()
	if w.appendHist != nil {
		w.appendHist.ObserveSince(t0)
	}
	return lsn
}

// Flush makes the log durable up to at least lsn and returns the virtual
// completion time. It is FlushCommits without the count.
func (w *Writer) Flush(at simclock.Time, lsn LSN) (simclock.Time, error) {
	t, _, err := w.FlushCommits(at, lsn)
	return t, err
}

// FlushCommits makes the log durable up to at least lsn and returns the
// virtual completion time and the number of RecCommit records its own device
// write carried: 0 when lsn was durable already or another caller's write
// covered it.
//
// A caller that finds a write in flight waits for it and returns once lsn is
// durable; if lsn is still not, the first such caller to wake writes
// everything appended so far. A failed write returns its error to the
// caller that issued it alone: the records stay pending, and a waiter it
// would have covered writes them itself.
//
// What reaches the device depends on the device, the image it leaves does
// not: the stream, and zeros past its end.
//
//   - A device with a byte-range write path (device.File) gets the sectors
//     that gained bytes: from the sector holding the durable LSN to the end
//     of the sector holding the stream end, in one write, or in writes of at
//     most window pages each that meet on page boundaries. The bytes past the
//     stream end are zero on the device already (see window). A sector below
//     the one that holds the durable LSN is never written again, so a torn
//     write cannot damage an acknowledged record in one.
//   - Any other device gets every page that overlaps the unflushed stream,
//     whole, the partial tail page zero-padded and rewritten as it fills.
//
// A flush that would run past the end of the device writes nothing and
// returns ErrLogFull.
func (w *Writer) FlushCommits(at simclock.Time, lsn LSN) (simclock.Time, int, error) {
	var t0 time.Time
	if w.flushHist != nil {
		t0 = time.Now()
	}
	w.gate.Lock()
	for {
		w.mu.Lock()
		covered := lsn <= w.durable || w.nextLSN == w.durable // the second: an lsn past the stream
		w.mu.Unlock()
		if covered {
			w.gate.Unlock()
			return at, 0, nil
		}
		if !w.flushing {
			break
		}
		w.flushed.Wait()
	}
	w.flushing = true
	w.gate.Unlock()

	t, n, err := w.write(at)

	w.gate.Lock()
	w.flushing = false
	w.gate.Unlock()
	w.flushed.Broadcast()
	if err != nil {
		return t, 0, err
	}
	if w.flushHist != nil {
		w.flushHist.ObserveSince(t0)
	}
	return t, n, nil
}

// write writes everything appended so far and publishes it durable, for the
// one caller the flush gate lets through. Records appended while the I/O is
// in flight accumulate in pending for the next write: the trim after the I/O
// keeps everything past the last fully written page.
func (w *Writer) write(at simclock.Time) (simclock.Time, int, error) {
	// Snapshot the stream under the buffer latch. pendingOff only advances
	// here, behind the gate, so snapOff is stable for the whole write.
	//
	// snap aliases pending instead of copying it. Until this write trims,
	// nobody writes the bytes it covers: appenders only add past its length
	// (or move to a larger array, leaving this one as it was), and the only
	// code that shifts bytes is the trim below.
	w.mu.Lock()
	snapOff := w.pendingOff // always page-aligned
	snapEnd := w.nextLSN
	snap := w.pending
	durable := w.durable
	n := w.commits
	w.commits = 0
	w.mu.Unlock()

	firstPage := int64(snapOff) / int64(w.pageSize)
	lastPage := int64(snapEnd-1) / int64(w.pageSize)
	var t simclock.Time
	var err error
	switch {
	case lastPage >= w.dev.NumPages():
		t, err = at, fmt.Errorf("wal: flush [%d,%d) on a log of %d pages: %w", durable, snapEnd, w.dev.NumPages(), ErrLogFull)
	case w.rw != nil:
		t, err = w.writeSectors(at, snap, snapOff, durable&^(sectorSize-1), (snapEnd+sectorSize-1)&^(sectorSize-1))
	default:
		t, err = w.writePages(at, snap, firstPage, lastPage)
	}

	// Trim pending in place down to the partial tail page (plus anything
	// appended during the I/O) and publish durability of the snapshot; or,
	// after a failure, hand the snapshot's commit records back to the next
	// write.
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.commits += n
		return t, 0, err
	}
	tailStart := LSN(lastPage * int64(w.pageSize))
	if int(snapEnd)%w.pageSize == 0 {
		tailStart = snapEnd // tail page was complete in the snapshot
	}
	keepFrom := int(tailStart - w.pendingOff)
	w.pending = w.pending[:copy(w.pending, w.pending[keepFrom:])]
	w.pendingOff = tailStart
	w.durable = snapEnd
	w.fullSynced += lastPage - firstPage + 1
	return t, n, nil
}

// writePages writes pages [firstPage, lastPage] of the stream snap holds from
// firstPage's start on: complete pages straight from snap, the partial tail
// page and any page past snap zero-padded through tailBuf.
func (w *Writer) writePages(at simclock.Time, snap []byte, firstPage, lastPage int64) (simclock.Time, error) {
	if w.tailBuf == nil {
		w.tailBuf = make([]byte, w.pageSize)
	}
	t := at
	for p := firstPage; p <= lastPage; p++ {
		from := int(p-firstPage) * w.pageSize
		buf := w.tailBuf
		if from+w.pageSize <= len(snap) {
			buf = snap[from : from+w.pageSize]
		} else {
			clear(buf[copy(buf, snap[min(from, len(snap)):]):])
		}
		var err error
		t, err = w.dev.WritePage(t, p, buf)
		if err != nil {
			return t, fmt.Errorf("wal: flush page %d: %w", p, err)
		}
	}
	return t, nil
}

// writeSectors writes the bytes [from, to) of the stream snap holds from
// snapOff on, zeros past its end, in writes of at most window pages, each
// after the first starting on a page boundary. A write that lies inside snap
// goes straight from it; the last, which runs past the stream end, is
// assembled in tailBuf: appenders own the array past snap's length.
func (w *Writer) writeSectors(at simclock.Time, snap []byte, snapOff, from, to LSN) (simclock.Time, error) {
	ps := LSN(w.pageSize)
	t := at
	for from < to {
		end := min(to, (from+window*ps)/ps*ps)
		lo, hi := int(from-snapOff), int(end-snapOff)
		var buf []byte
		if hi <= len(snap) {
			buf = snap[lo:hi]
		} else {
			if n := hi - lo; cap(w.tailBuf) < n {
				w.tailBuf = make([]byte, min(max(n, 2*cap(w.tailBuf)), window*w.pageSize))
			}
			buf = w.tailBuf[:hi-lo]
			clear(buf[copy(buf, snap[min(lo, len(snap)):]):])
		}
		var err error
		t, err = w.rw.WriteRange(t, int64(from), buf)
		if err != nil {
			return t, fmt.Errorf("wal: flush bytes [%d,%d): %w", from, end, err)
		}
		from = end
	}
	return t, nil
}

// Durable reports the durable LSN.
func (w *Writer) Durable() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// NextLSN reports the LSN that the next appended byte will receive.
func (w *Writer) NextLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// PageWrites reports the number of pages flushes have written into, whole or
// in part: one per page write on the page path, the pages a range spans on
// the range path.
func (w *Writer) PageWrites() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fullSynced
}

// scanRun is how many pages Scan reads per device read (256 KB at the
// default page size): one ReadPages on a device that has the path.
const scanRun = 32

// Scan replays the log on dev from offset 0, invoking fn for every intact
// record in order, and returns the stream offset just past the last one. The
// log is its longest intact prefix: Scan ends at the first bytes that do not
// decode — zeros past the end, a torn record, or the hole a lost sector left
// — and never looks past them, since nothing after a hole can be trusted to
// belong to the stream (see window).
//
// The log is read in runs of scanRun pages into one buffer, reused for every
// run: the undecoded remainder of a run moves to its front and the next run
// is read in behind it. A record's Data aliases that buffer (see
// DecodeRecord), so it is valid only until fn returns: fn copies what it
// keeps. The buffer grows only for a remainder longer than a page, which a
// record longer than a page (a DDL record) or debris whose length field
// claims one can leave, so a scan allocates a number of buffers that does not
// grow with the log.
func Scan(dev device.BlockDevice, fn func(lsn LSN, rec Record) error) (LSN, error) {
	return scan(dev, 0, LSN(dev.NumPages())*LSN(dev.PageSize()), func(lsn LSN, rec Record, _ []byte) error {
		return fn(lsn, rec)
	})
}

// scan is Scan's loop over the records of [from, limit), from a record
// boundary on: it reads no page past the one that holds the byte before limit
// and no record that ends past limit. fn also gets the record's encoded bytes,
// which alias the buffer like its Data.
func scan(dev device.BlockDevice, from, limit LSN, fn func(lsn LSN, rec Record, raw []byte) error) (LSN, error) {
	ps := int64(dev.PageSize())
	rr, _ := dev.(device.PageRangeReader)
	p, last := int64(from)/ps, min((int64(limit)+ps-1)/ps, dev.NumPages())
	if p >= last {
		return from, nil
	}
	buf := make([]byte, (min(scanRun, last-p)+1)*ps) // a run, and a page of remainder
	lead := int(int64(from) % ps)                    // bytes of the first page before from
	var stream []byte                                // the undecoded bytes, in buf
	base := from                                     // offset of stream[0]
	at := simclock.Time(0)
	for p < last {
		n := min(scanRun, last-p)
		size := int(n * ps)
		if need := len(stream) + size; need > len(buf) {
			buf = make([]byte, max(need, 2*len(buf)))
		}
		run := buf[copy(buf, stream) : len(stream)+size]
		var err error
		if rr != nil {
			at, err = rr.ReadPages(at, p, int(n), run)
		} else {
			for i := int64(0); i < n && err == nil; i++ {
				at, err = dev.ReadPage(at, p+i, run[i*ps:])
			}
		}
		if err != nil {
			return base, fmt.Errorf("wal: scan read pages [%d,%d): %w", p, p+n, err)
		}
		stream = buf[lead : len(stream)+size]
		lead = 0
		stream = stream[:min(LSN(len(stream)), limit-base)]
		p += n
		// A record whose bytes run past this run waits for the next one; any
		// other decode failure, or one at the last page, is the end.
		for {
			rec, k, err := DecodeRecord(stream)
			if err != nil {
				if errors.Is(err, errNeedMore) && p < last {
					break
				}
				return base, nil
			}
			if err := fn(base, rec, stream[:k:k]); err != nil {
				return base, err
			}
			stream = stream[k:]
			base += LSN(k)
		}
	}
	return base, nil
}
