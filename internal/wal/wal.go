//go:build linux || darwin || freebsd

// Package wal is a segmented, CRC-framed write-ahead log: the
// durability primitive under a stream.SkylineIndex. Records are opaque
// payloads; the log assigns each a monotonically increasing LSN (its
// ordinal since the log was created) and guarantees that whatever
// prefix of appended records survives a crash is exactly recoverable.
//
// On-disk layout: a directory of segment files named
// wal-<firstLSN>.seg, each a concatenation of frames
//
//	uint32 payload length | uint32 CRC-32C(payload) | payload
//
// (little-endian). A crash can tear the final frame of the final
// segment; Open detects the torn tail (short frame, or CRC mismatch)
// and truncates the file back to the last intact frame, so appends
// resume on a clean boundary. A corrupt frame anywhere else — in a
// non-final segment, or followed by intact frames — is real data loss
// and surfaces as ErrCorrupt rather than being silently skipped.
//
// The active segment is written through a MAP_SHARED mapping of a
// sliding window of at most 1 MiB: an append encodes its frames
// straight into the window, with no write(2). Before a window is
// mapped, its blocks are reserved with one zero-filling write, so a full
// disk is an error from Append, never a SIGBUS on a page fault. The
// reservation leaves the active segment ending in zeros; a zero-length
// header therefore ends the frames (Append rejects an empty payload, so
// no real frame has one). Rotation and Close unmap the window and
// truncate the segment to its frames, so only a crashed final segment
// can end in zeros, and Open truncates that tail as it truncates a torn
// one.
//
// Sync policy is configurable: SyncAlways fsyncs every append (and
// every batch once — AppendBatch is the group-commit path), SyncOS
// makes stores into a shared mapping and lets the kernel flush
// (survives process crashes, not power loss), SyncInterval runs a
// background fsync loop. Under SyncAlways and SyncInterval a new
// segment's directory entry is fsynced too. TruncateBefore removes
// whole segments below a checkpointed LSN.
//
// The package is unix-only: it maps segments with syscall.Mmap.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"skybench/internal/faults"
)

// ErrClosed reports use of a closed Log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncOS makes stores into a shared mapping and never fsyncs
	// explicitly: the data survives a process crash the moment Append
	// returns (it is in the kernel page cache), but not a power failure.
	// The default.
	SyncOS SyncPolicy = iota
	// SyncAlways fsyncs after every Append and once per AppendBatch —
	// the group-commit policy: a batch of N records costs one fsync.
	SyncAlways
	// SyncInterval fsyncs from a background loop every Options.Interval
	// (default 50ms): bounded data loss under power failure, near-SyncOS
	// throughput.
	SyncInterval
)

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// Interval is the SyncInterval period (default 50ms).
	Interval time.Duration
	// Faults, when non-nil, arms the "wal.append", "wal.sync", and
	// "wal.rotate" injection sites.
	Faults *faults.Injector
}

const (
	defaultSegmentSize = 4 << 20
	defaultInterval    = 50 * time.Millisecond
	segPrefix          = "wal-"
	segSuffix          = ".seg"
	// MaxRecord bounds a single payload; anything larger (or a frame
	// length claiming it) is treated as corruption, which keeps torn-
	// tail detection from allocating absurd buffers on garbage lengths.
	MaxRecord = 64 << 20
	// windowBytes bounds the mapped window of the active segment; a
	// batch larger than it gets a window of its own size.
	windowBytes = 1 << 20
)

var pageSize = int64(os.Getpagesize())

// zeros is the source of the zero-filling reservation writes; it is
// never written.
var zeros [windowBytes]byte

// Log is an append-only segmented record log. Append, Sync, SyncDir
// and TruncateBefore are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // LSN of the active segment's first record
	segSize  int64  // bytes of frames in the active segment
	reserved int64  // file size: segSize plus the zeroed reservation after it
	win      []byte // shared mapping of the active segment from byte winOff
	winOff   int64
	synced   int64    // the active segment is fsynced up to here
	next     uint64   // LSN the next Append receives
	segments []uint64 // first LSN of every on-disk segment, ascending
	failed   error    // sticky: a sync failed, so acknowledged records may be lost
	closed   bool

	fsyncs   uint64 // fsync calls issued (all sites: sync, rotate, loop, close, directory)
	dirSyncs uint64 // of which on the log's directory
	fsyncNs  int64  // total wall-clock nanoseconds inside fsync

	syncStop chan struct{}
	syncDone chan struct{}
}

// Stats is a point-in-time snapshot of the log's durability counters —
// the WAL half of a collection's DurabilityStats.
type Stats struct {
	// Fsyncs counts fsync calls issued on segment files and on the
	// log's directory; FsyncTime is the total wall-clock time spent
	// inside them. DirSyncs counts the directory's share.
	Fsyncs    uint64
	FsyncTime time.Duration
	DirSyncs  uint64
	// Segments is the current number of on-disk segments.
	Segments int
}

// Stats returns the log's durability counters. Safe for concurrent use.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Fsyncs:    l.fsyncs,
		FsyncTime: time.Duration(l.fsyncNs),
		DirSyncs:  l.dirSyncs,
		Segments:  len(l.segments),
	}
}

// fsyncLocked is the single instrumented segment sync site: every
// policy path (explicit Sync, per-append SyncAlways, rotation, the
// interval loop, Close) funnels through it so the counters cover all of
// them. It msyncs the window's unsynced span, then fsyncs the file. A
// failure poisons the log: the kernel may have dropped the pages it
// could not write, so no later sync can vouch for the records before it.
func (l *Log) fsyncLocked() error {
	err := faults.Check(l.opts.Faults, "wal.sync")
	if err == nil {
		start := time.Now()
		err = l.msyncLocked()
		if err == nil {
			err = l.f.Sync()
		}
		l.fsyncNs += int64(time.Since(start))
		l.fsyncs++
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: sync: %w", err)
		return l.failed
	}
	l.synced = l.segSize
	return nil
}

// msyncLocked flushes the window's stores after l.synced. Stores made
// through a window since unmapped are ordinary dirty pages of the file,
// which the fsync after it writes back.
func (l *Log) msyncLocked() error {
	if l.win == nil || l.synced >= l.segSize {
		return nil
	}
	from := max(l.synced, l.winOff) - l.winOff
	from &^= pageSize - 1 // msync takes a page-aligned address
	b := l.win[from : l.segSize-l.winOff]
	if _, _, errno := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), syscall.MS_SYNC); errno != 0 {
		return fmt.Errorf("msync: %w", errno)
	}
	return nil
}

// SyncDir fsyncs the log's directory, making every rename, create and
// unlink in it durable; a checkpoint calls it after its rename. Like a
// failed segment sync, a failure poisons the log.
func (l *Log) SyncDir() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncDirLocked()
}

func (l *Log) syncDirLocked() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	start := time.Now()
	err = d.Sync()
	l.fsyncNs += int64(time.Since(start))
	l.fsyncs++
	l.dirSyncs++
	d.Close() // opened read-only; the sync's error is the one that counts
	if err != nil {
		l.failed = fmt.Errorf("wal: sync dir: %w", err)
		return l.failed
	}
	return nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the first-LSNs of the directory's segments,
// ascending. An empty directory yields none.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, first)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs, nil
}

// Open opens (or creates) the log in dir, scanning existing segments to
// find the next LSN and truncating a torn final frame so appends resume
// on a clean boundary. Corruption before the final frame returns an
// error wrapping ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentSize
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, segments: segs}
	if len(segs) == 0 {
		if err := l.openSegment(0); err != nil {
			if l.f != nil {
				l.f.Close()
			}
			return nil, err
		}
	} else {
		// Verify every non-final segment ends cleanly, then scan the
		// final one, truncating its torn tail if any.
		for i, first := range segs {
			final := i == len(segs)-1
			path := filepath.Join(dir, segName(first))
			n, good, err := scanSegment(path, first, nil)
			if err != nil {
				return nil, err
			}
			if !final {
				if fi, err := os.Stat(path); err != nil {
					return nil, err
				} else if fi.Size() != good {
					return nil, fmt.Errorf("%w: segment %s has a torn tail but is not the final segment", ErrCorrupt, segName(first))
				}
				continue
			}
			// A torn frame or a zeroed reservation: cut back to the frames.
			if fi, err := os.Stat(path); err != nil {
				return nil, err
			} else if fi.Size() != good {
				if err := os.Truncate(path, good); err != nil {
					return nil, err
				}
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			l.f = f
			l.segStart = first
			l.segSize = good
			l.reserved = good
			l.synced = good
			l.next = first + uint64(n)
		}
	}
	if opts.Sync == SyncInterval {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// openSegment creates a fresh active segment whose first record will be
// LSN first. Under SyncAlways and SyncInterval it then fsyncs the
// directory, so a power cut cannot drop the segment's entry with the
// records synced into it.
func (l *Log) openSegment(first uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(first)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segStart = first
	l.segSize, l.reserved, l.synced, l.winOff = 0, 0, 0, 0
	l.next = first
	l.segments = append(l.segments, first)
	if l.opts.Sync == SyncAlways || l.opts.Sync == SyncInterval {
		return l.syncDirLocked()
	}
	return nil
}

// scanSegment walks one segment's frames starting at LSN first, calling
// fn (when non-nil) per intact record, and returns the record count and
// the byte offset of the end of the last intact frame. A zero-length
// header ends the frames (it starts a zeroed reservation). A torn or
// zeroed tail is not an error here — the caller decides whether it is
// legal (final segment) or corruption (anywhere else).
func scanSegment(path string, first uint64, fn func(lsn uint64, payload []byte) error) (n int, good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var hdr [HeaderSize]byte
	var buf []byte
	lsn := first
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return n, good, nil // clean EOF or torn header: stop at last intact frame
		}
		length, crc := header(hdr[:])
		if length == 0 {
			return n, good, nil // the zeroed reservation after the last frame
		}
		if length > MaxRecord {
			return n, good, nil // garbage length: treat as torn from here
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(f, buf); err != nil {
			return n, good, nil // torn payload
		}
		if checksum(buf) != crc {
			return n, good, nil // torn or corrupt frame; caller judges
		}
		if fn != nil {
			if err := fn(lsn, buf); err != nil {
				return n, good, err
			}
		}
		lsn++
		n++
		good += HeaderSize + int64(length)
	}
}

// Replay calls fn for every record with LSN ≥ from, in order, across
// all segments, without opening the log for writing. A torn final frame
// of the final segment is skipped (a crash tore it mid-append; the
// record was never acknowledged); any earlier damage returns an error
// wrapping ErrCorrupt. It returns the next LSN (one past the last
// intact record).
func Replay(dir string, from uint64, fn func(lsn uint64, payload []byte) error) (next uint64, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	next = segs[0]
	for i, first := range segs {
		if i > 0 && first != next {
			return 0, fmt.Errorf("%w: segment gap, %s begins at lsn %d but previous segment ended at %d", ErrCorrupt, segName(first), first, next)
		}
		final := i == len(segs)-1
		path := filepath.Join(dir, segName(first))
		deliver := func(lsn uint64, payload []byte) error {
			if lsn < from || fn == nil {
				return nil
			}
			return fn(lsn, payload)
		}
		n, good, err := scanSegment(path, first, deliver)
		if err != nil {
			return 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		if fi.Size() != good && !final {
			return 0, fmt.Errorf("%w: segment %s has a torn tail but is not the final segment", ErrCorrupt, segName(first))
		}
		next = first + uint64(n)
	}
	return next, nil
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Err returns the sticky failure, if a sync failed and the log can no
// longer vouch for the records it acknowledged.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append writes one record and returns its LSN, honoring the sync
// policy. A failed append stores nothing: the record is rejected and
// the next Append receives its LSN. An empty payload is rejected, since
// a zero-length header marks the end of a segment's frames.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch appends every payload as one contiguous run of frames —
// the group-commit path: under SyncAlways the whole batch costs a single
// fsync, and a crash either keeps a prefix of the batch or none of it
// (records are framed individually, so a torn batch recovers its intact
// prefix). It returns the LSN of the first record.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if len(payloads) == 0 {
		return l.next, nil
	}
	total := int64(0)
	for _, p := range payloads {
		if len(p) == 0 {
			return 0, errors.New("wal: empty record")
		}
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(p))
		}
		total += HeaderSize + int64(len(p))
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	if err := faults.Check(l.opts.Faults, "wal.append"); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if l.segSize+total > l.winOff+int64(len(l.win)) {
		if err := l.remap(total); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	}

	// Nothing below can fail: the frames go straight into the window.
	dst := l.win[l.segSize-l.winOff:]
	for _, p := range payloads {
		PutHeader(dst, p)
		dst = dst[HeaderSize+copy(dst[HeaderSize:], p):]
	}
	first := l.next
	l.segSize += total
	l.next += uint64(len(payloads))
	if l.opts.Sync == SyncAlways {
		if err := l.fsyncLocked(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// remap slides the window to the page holding the end of the frames and
// sizes it for total more bytes: at most windowBytes, and no more than
// the segment can still take (rounded up to a page), unless the batch
// needs more. The blocks are reserved before they are mapped, so running
// out of disk is an error here, not a SIGBUS on a later store.
func (l *Log) remap(total int64) error {
	if err := l.unmap(); err != nil {
		return err
	}
	off := l.segSize &^ (pageSize - 1)
	end := max(pageUp(min(off+windowBytes, l.opts.SegmentBytes)), pageUp(l.segSize+total))
	for l.reserved < end {
		n, err := l.f.WriteAt(zeros[:min(end-l.reserved, windowBytes)], l.reserved)
		l.reserved += int64(n)
		if err != nil {
			return fmt.Errorf("reserve: %w", err)
		}
	}
	win, err := syscall.Mmap(int(l.f.Fd()), off, int(end-off), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mmap: %w", err)
	}
	l.win, l.winOff = win, off
	return nil
}

func pageUp(n int64) int64 { return (n + pageSize - 1) &^ (pageSize - 1) }

// unmap drops the window; its stores stay in the file's page cache.
func (l *Log) unmap() error {
	if l.win == nil {
		return nil
	}
	err := syscall.Munmap(l.win)
	l.win = nil
	if err != nil {
		return fmt.Errorf("munmap: %w", err)
	}
	return nil
}

// closeSegment unmaps the active segment, cuts its zeroed reservation
// off so it ends at its last frame, fsyncs it (the truncation included)
// and closes it.
func (l *Log) closeSegment() error {
	if err := l.unmap(); err != nil {
		return err
	}
	if err := l.f.Truncate(l.segSize); err != nil {
		return err
	}
	l.reserved = l.segSize
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	return l.f.Close()
}

// rotate closes the active segment and opens a fresh one.
func (l *Log) rotate() error {
	if err := faults.Check(l.opts.Faults, "wal.rotate"); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.closeSegment(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.openSegment(l.next); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	return nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	return l.fsyncLocked()
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.syncStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.failed == nil {
				l.fsyncLocked() // a failure poisons the log; Err reports it
			}
			l.mu.Unlock()
		}
	}
}

// TruncateBefore removes every segment whose records all have LSN <
// lsn — the post-checkpoint cleanup. The active segment is never
// removed.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keep := l.segments[:0]
	for i, first := range l.segments {
		// A segment's records end where the next one begins; the last
		// (active) segment always stays.
		if i+1 < len(l.segments) && l.segments[i+1] <= lsn {
			if err := os.Remove(filepath.Join(l.dir, segName(first))); err != nil && !os.IsNotExist(err) {
				l.segments = append(keep, l.segments[i:]...)
				return err
			}
			continue
		}
		keep = append(keep, first)
	}
	l.segments = keep
	return nil
}

// Close truncates the active segment to its frames, fsyncs and closes
// it (and stops the interval syncer). The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.syncStop != nil {
		close(l.syncStop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		// A poisoned log is not synced again; Open cuts the tail.
		err := l.unmap()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return l.closeSegment()
}
