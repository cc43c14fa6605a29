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
// Sync policy is configurable: SyncAlways fsyncs every append (and
// every batch once — AppendBatch is the group-commit path), SyncOS
// issues plain write(2)s and lets the kernel flush (survives process
// crashes, not power loss), SyncInterval runs a background fsync loop.
// TruncateBefore removes whole segments below a checkpointed LSN.
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
	"time"

	"skybench/internal/faults"
)

// ErrCorrupt reports a WAL whose damage exceeds a torn final frame: a
// bad CRC or impossible length in the middle of the record sequence.
// The public surfaces wrap it into skybench.ErrCorruptWAL.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed reports use of a closed Log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncOS issues buffered write(2)s and never fsyncs explicitly: the
	// data survives a process crash the moment Append returns (it is in
	// the kernel page cache), but not a power failure. The default.
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
)

// Log is an append-only segmented record log. Append, Sync, and
// TruncateBefore are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // LSN of the active segment's first record
	segSize  int64
	next     uint64   // LSN the next Append receives
	segments []uint64 // first LSN of every on-disk segment, ascending
	failed   error    // sticky: the log can no longer guarantee a clean tail
	closed   bool

	fsyncs  uint64 // fsync calls issued (all sites: sync, rotate, loop, close)
	fsyncNs int64  // total wall-clock nanoseconds inside fsync

	syncStop chan struct{}
	syncDone chan struct{}
	scratch  []byte
}

// Stats is a point-in-time snapshot of the log's durability counters —
// the WAL half of a collection's DurabilityStats.
type Stats struct {
	// Fsyncs counts fsync calls issued on segment files; FsyncTime is
	// the total wall-clock time spent inside them.
	Fsyncs    uint64
	FsyncTime time.Duration
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
		Segments:  len(l.segments),
	}
}

// fsyncLocked is the single instrumented fsync site: every policy path
// (explicit Sync, per-append SyncAlways, rotation, the interval loop,
// Close) funnels through it so the counters cover all of them.
func (l *Log) fsyncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.fsyncNs += int64(time.Since(start))
	l.fsyncs++
	return err
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
			return nil, err
		}
		l.segments = []uint64{0}
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
			if fi, err := os.Stat(path); err != nil {
				return nil, err
			} else if fi.Size() != good {
				if err := os.Truncate(path, good); err != nil {
					return nil, err
				}
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			l.f = f
			l.segStart = first
			l.segSize = good
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
// LSN first.
func (l *Log) openSegment(first uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(first)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segStart = first
	l.segSize = 0
	l.next = first
	return nil
}

// scanSegment walks one segment's frames starting at LSN first, calling
// fn (when non-nil) per intact record, and returns the record count and
// the byte offset of the end of the last intact frame. A torn tail is
// not an error here — the caller decides whether it is legal (final
// segment) or corruption (anywhere else).
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

// Err returns the sticky failure, if the log can no longer guarantee a
// clean tail (a failed append it could not roll back).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append writes one record and returns its LSN, honoring the sync
// policy. On a write error it rolls the file back to the last clean
// frame boundary; if even the rollback fails the log is marked failed
// and every later Append returns the sticky error.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch appends every payload as one contiguous write — the
// group-commit path: under SyncAlways the whole batch costs a single
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
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}

	total := 0
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(p))
		}
		total += HeaderSize + len(p)
	}
	if cap(l.scratch) < total {
		l.scratch = make([]byte, 0, total)
	}
	buf := l.scratch[:0]
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	l.scratch = buf[:0]

	first := l.next
	if err := l.write(buf); err != nil {
		return 0, err
	}
	l.next += uint64(len(payloads))
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// write appends buf to the active segment, rolling back to the previous
// clean boundary on error (marking the log failed only when the
// rollback itself fails, i.e. the tail state is unknown).
func (l *Log) write(buf []byte) error {
	if err := faults.Check(l.opts.Faults, "wal.append"); err != nil {
		return l.rollback(fmt.Errorf("wal: append: %w", err))
	}
	n, err := l.f.Write(buf)
	if err != nil {
		if n == 0 {
			// Nothing reached the file; the tail is still clean.
			return fmt.Errorf("wal: append: %w", err)
		}
		return l.rollback(fmt.Errorf("wal: append: %w", err))
	}
	l.segSize += int64(len(buf))
	return nil
}

// rollback truncates the active segment back to the last acknowledged
// frame boundary after a failed or injected write. If the truncate
// fails too the log is poisoned.
func (l *Log) rollback(cause error) error {
	if err := l.f.Truncate(l.segSize); err != nil {
		l.failed = fmt.Errorf("wal: failed append could not be rolled back (%v): %w", err, cause)
		return l.failed
	}
	if _, err := l.f.Seek(l.segSize, io.SeekStart); err != nil {
		l.failed = fmt.Errorf("wal: failed append could not be rolled back (%v): %w", err, cause)
		return l.failed
	}
	return cause
}

// rotate fsyncs and closes the active segment and opens a fresh one.
func (l *Log) rotate() error {
	if err := faults.Check(l.opts.Faults, "wal.rotate"); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.openSegment(l.next); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.segments = append(l.segments, l.segStart)
	return nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := faults.Check(l.opts.Faults, "wal.sync"); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := l.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
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
			if !l.closed {
				l.fsyncLocked()
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

// Close fsyncs and closes the active segment (and stops the interval
// syncer). The log must not be used afterwards.
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
	var err error
	if l.failed == nil {
		err = l.fsyncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
