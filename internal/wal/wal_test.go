//go:build linux || darwin || freebsd

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"skybench/internal/faults"
)

func collect(t *testing.T, dir string, from uint64) (recs [][]byte, next uint64) {
	t.Helper()
	next, err := Replay(dir, from, func(lsn uint64, payload []byte) error {
		if lsn != from+uint64(len(recs)) {
			t.Fatalf("lsn %d out of order (want %d)", lsn, from+uint64(len(recs)))
		}
		recs = append(recs, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, next
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
		want = append(want, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, next := collect(t, dir, 0)
	if next != 100 || len(recs) != 100 {
		t.Fatalf("replayed %d records, next=%d", len(recs), next)
	}
	for i, r := range recs {
		if string(r) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r, want[i])
		}
	}
	// Replay from an offset.
	recs, _ = collect(t, dir, 97)
	if len(recs) != 3 || string(recs[0]) != "record-097" {
		t.Fatalf("offset replay got %d records, first %q", len(recs), recs[0])
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 10; i++ {
		l.Append([]byte{byte(i)})
	}
	l.Close()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append([]byte{0xff})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 10 {
		t.Fatalf("resumed lsn = %d, want 10", lsn)
	}
	l.Close()
	recs, _ := collect(t, dir, 0)
	if len(recs) != 11 {
		t.Fatalf("got %d records, want 11", len(recs))
	}
}

func TestSegmentRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentBytes: 64})
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	recs, next := collect(t, dir, 0)
	if len(recs) != 40 || next != 40 {
		t.Fatalf("replayed %d records across segments, next=%d", len(recs), next)
	}

	// Drop segments wholly below LSN 20: replay from 20 still works.
	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(segs) {
		t.Fatalf("TruncateBefore removed nothing (%d -> %d segments)", len(segs), len(after))
	}
	_, err := Replay(dir, 20, func(lsn uint64, p []byte) error {
		if string(p) != fmt.Sprintf("payload-%02d", lsn) {
			return fmt.Errorf("lsn %d payload %q", lsn, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// lastSegPath returns the path of the final segment.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, cut := range []string{"header", "payload", "crc"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := Open(dir, Options{})
			for i := 0; i < 5; i++ {
				l.Append([]byte(fmt.Sprintf("intact-%d", i)))
			}
			l.Close()
			path := lastSegPath(t, dir)
			fi, _ := os.Stat(path)
			switch cut {
			case "header":
				os.Truncate(path, fi.Size()-13) // mid-payload of last record
			case "payload":
				os.Truncate(path, fi.Size()-3)
			case "crc":
				// Flip a payload byte of the final record: CRC mismatch.
				data, _ := os.ReadFile(path)
				data[len(data)-1] ^= 0xff
				os.WriteFile(path, data, 0o644)
			}
			recs, next := collect(t, dir, 0)
			if len(recs) != 4 || next != 4 {
				t.Fatalf("torn tail: replayed %d records, next=%d, want 4", len(recs), next)
			}
			// Open truncates the tear and appends resume cleanly.
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if lsn, err := l.Append([]byte("after-tear")); err != nil || lsn != 4 {
				t.Fatalf("append after tear: lsn=%d err=%v", lsn, err)
			}
			l.Close()
			recs, _ = collect(t, dir, 0)
			if len(recs) != 5 || string(recs[4]) != "after-tear" {
				t.Fatalf("after reopen: %d records, last %q", len(recs), recs[len(recs)-1])
			}
		})
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentBytes: 32})
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatal("need at least two segments")
	}
	// Corrupt the FIRST segment's first record payload.
	path := filepath.Join(dir, segName(segs[0]))
	data, _ := os.ReadFile(path)
	data[HeaderSize] ^= 0xff
	os.WriteFile(path, data, 0o644)
	_, err := Replay(dir, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay of mid-log corruption: err = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestGarbageLengthTreatedAsTear(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("good"))
	l.Close()
	path := lastSegPath(t, dir)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], ^uint32(0)) // absurd length
	f.Write(hdr[:])
	f.Close()
	recs, _ := collect(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
}

func TestAppendBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{Sync: SyncAlways})
	batch := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	first, err := l.AppendBatch(batch)
	if err != nil || first != 0 {
		t.Fatalf("AppendBatch: first=%d err=%v", first, err)
	}
	if n := l.NextLSN(); n != 3 {
		t.Fatalf("NextLSN = %d, want 3", n)
	}
	l.Close()
	recs, _ := collect(t, dir, 0)
	if len(recs) != 3 || string(recs[2]) != "ccc" {
		t.Fatalf("batch replay: %d records", len(recs))
	}
}

func TestInjectedAppendErrorRollsBack(t *testing.T) {
	in := faults.New(1)
	in.Arm(faults.Plan{Site: "wal.append", After: 2}) // 3rd append fails
	dir := t.TempDir()
	l, _ := Open(dir, Options{Faults: in})
	l.Append([]byte("one"))
	l.Append([]byte("two"))
	if _, err := l.Append([]byte("three")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if l.Err() != nil {
		t.Fatalf("rolled-back append must not poison the log: %v", l.Err())
	}
	// The failed record was rolled back; the next append gets its LSN.
	if lsn, err := l.Append([]byte("three-retried")); err != nil || lsn != 2 {
		t.Fatalf("retry: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	recs, _ := collect(t, dir, 0)
	if len(recs) != 3 || string(recs[2]) != "three-retried" {
		t.Fatalf("after rollback: %v", recs)
	}
}

func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{Sync: SyncInterval, Interval: time.Millisecond})
	l.Append([]byte("x"))
	l.Close()
	if _, err := l.Append([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// abandon drops l the way a killed process does: the window is
// unmapped and the file closed, with no truncation and no sync.
func abandon(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.unmap(); err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.closed = true
}

// framesOf is the byte image of payloads as the log frames them.
func framesOf(payloads [][]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendFrame(b, p)
	}
	return b
}

// TestMappedTailRecovered: a log abandoned without Close leaves its
// active segment ending in the zeroed reservation. Every acknowledged
// record replays, Open cuts the zeros off, and the next Append gets the
// next LSN. The run slides the window and maps one batch larger than it.
func TestMappedTailRecovered(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 6000; i++ {
		p := fmt.Appendf(nil, "single-%05d-%0180d", i, i)
		if lsn, err := l.Append(p); err != nil || lsn != uint64(len(want)) {
			t.Fatalf("append %d: lsn=%d err=%v", i, lsn, err)
		}
		want = append(want, p)
		if i == 3000 {
			batch := make([][]byte, 8)
			for j := range batch {
				batch[j] = bytes.Repeat([]byte{byte('a' + j)}, 200<<10)
			}
			if first, err := l.AppendBatch(batch); err != nil || first != uint64(len(want)) {
				t.Fatalf("big batch: first=%d err=%v", first, err)
			}
			want = append(want, batch...)
		}
	}
	frames := int64(len(framesOf(want)))
	path := lastSegPath(t, dir)
	if fi, err := os.Stat(path); err != nil || fi.Size() <= frames {
		t.Fatalf("segment of %v bytes for %d bytes of frames: no reservation after them (%v)", fi.Size(), frames, err)
	}
	abandon(t, l)

	recs, next := collect(t, dir, 0)
	if len(recs) != len(want) || next != uint64(len(want)) {
		t.Fatalf("replayed %d records, next=%d, want %d", len(recs), next, len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != frames {
		t.Fatalf("reopened segment is %v bytes, want its %d bytes of frames (%v)", fi.Size(), frames, err)
	}
	if lsn, err := l.Append([]byte("after")); err != nil || lsn != uint64(len(want)) {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ = collect(t, dir, 0)
	if len(recs) != len(want)+1 || string(recs[len(want)]) != "after" {
		t.Fatalf("after reopen: %d records", len(recs))
	}
}

// TestReservationFailureIsAnError: when the disk cannot take the next
// window, Append fails and stores nothing — the log never maps blocks it
// has not reserved, so no store can fault — and the records before it
// stay intact. RLIMIT_FSIZE stands in for a full disk, in a child
// process so the limit binds no other test.
func TestReservationFailureIsAnError(t *testing.T) {
	if dir := os.Getenv("WAL_FSIZE_CHILD_DIR"); dir != "" {
		fillUnderLimit(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestReservationFailureIsAnError$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), "WAL_FSIZE_CHILD_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`acked=(\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("child reported nothing:\n%s", out)
	}
	acked, _ := strconv.Atoi(string(m[1]))
	recs, next := collect(t, dir, 0)
	if acked == 0 || len(recs) != acked || next != uint64(acked) {
		t.Fatalf("child acknowledged %d records; %d replay, next=%d", acked, len(recs), next)
	}
}

// fillUnderLimit appends until the reservation of a second window runs
// into a 1.5 MiB file size limit, then closes the log cleanly.
func fillUnderLimit(t *testing.T, dir string) {
	const limit = 3 << 19
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{7}, 200)
	acked := uint64(0)
	for ; ; acked++ {
		lsn, err := l.Append(p)
		if err != nil {
			if !errors.Is(err, syscall.EFBIG) {
				t.Fatalf("append %d: %v, want the reservation's EFBIG", acked, err)
			}
			break
		}
		if lsn != acked {
			t.Fatalf("lsn %d, want %d", lsn, acked)
		}
	}
	if _, err := l.Append(p); !errors.Is(err, syscall.EFBIG) || l.NextLSN() != acked || l.Err() != nil {
		t.Fatalf("retry: %v, NextLSN %d (want %d), Err %v", err, l.NextLSN(), acked, l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("acked=%d\n", acked)
}

// TestCleanCloseFormatUnchanged: after rotations, a reopen and Close,
// every segment is exactly the concatenation of its frames — no
// reservation survives a clean shutdown.
func TestCleanCloseFormatUnchanged(t *testing.T) {
	dir := t.TempDir()
	var want [][]byte
	for _, n := range []int{40, 25} {
		l, err := Open(dir, Options{SegmentBytes: 384})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p := bytes.Repeat([]byte{byte(len(want))}, len(want)%50+1)
			if _, err := l.Append(p); err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments, got %v (%v)", segs, err)
	}
	for i, first := range segs {
		end := uint64(len(want))
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(first)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, framesOf(want[first:end])) {
			t.Fatalf("segment %s: %d bytes, want the %d bytes of records %d..%d", segName(first), len(data), len(framesOf(want[first:end])), first, end)
		}
	}
}

// TestEmptyPayloadRejected: a zero-length header ends a segment's
// frames, so an empty record must never be written.
func TestEmptyPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded")
	}
	if _, err := l.AppendBatch([][]byte{[]byte("a"), {}}); err == nil {
		t.Fatal("a batch holding an empty record succeeded")
	}
	if n := l.NextLSN(); n != 0 {
		t.Fatalf("rejected appends advanced NextLSN to %d", n)
	}
	if lsn, err := l.Append([]byte("a")); err != nil || lsn != 0 {
		t.Fatalf("append after rejections: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	if recs, _ := collect(t, dir, 0); len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
}

// TestDirSyncs: under SyncAlways and SyncInterval every new segment's
// directory entry is fsynced (Open's first segment and each rotation);
// under SyncOS none is. SyncDir fsyncs it under every policy, and every
// directory sync is counted in Fsyncs too.
func TestDirSyncs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sync      SyncPolicy
		perCreate uint64
	}{{"os", SyncOS, 0}, {"always", SyncAlways, 1}, {"interval", SyncInterval, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: 32, Sync: tc.sync, Interval: time.Hour}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.Stats().DirSyncs; got != tc.perCreate {
				t.Fatalf("after Open: %d directory syncs, want %d", got, tc.perCreate)
			}
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte("a record of thirty bytes.....")); err != nil {
					t.Fatal(err)
				}
			}
			st := l.Stats()
			if st.Segments != 5 || st.DirSyncs != 5*tc.perCreate {
				t.Fatalf("%d segments, %d directory syncs, want 5 and %d", st.Segments, st.DirSyncs, 5*tc.perCreate)
			}
			if err := l.SyncDir(); err != nil {
				t.Fatal(err)
			}
			if st2 := l.Stats(); st2.DirSyncs != st.DirSyncs+1 || st2.Fsyncs != st.Fsyncs+1 {
				t.Fatalf("SyncDir: directory syncs %d -> %d, fsyncs %d -> %d", st.DirSyncs, st2.DirSyncs, st.Fsyncs, st2.Fsyncs)
			}
			l.Close()
			// Reopening creates no segment and syncs no directory.
			l, err = Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.Stats().DirSyncs; got != 0 {
				t.Fatalf("reopen: %d directory syncs, want 0", got)
			}
			l.Close()
		})
	}
}

// TestSyncFailurePoisons: after a failed sync the kernel may have
// dropped what it could not write, so the log refuses further appends
// and Err reports why — whether the append's own sync or the interval
// loop's failed.
func TestSyncFailurePoisons(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}} {
		t.Run(tc.name, func(t *testing.T) {
			in := faults.New(1)
			in.Arm(faults.Plan{Site: "wal.sync"})
			l, err := Open(t.TempDir(), Options{Sync: tc.sync, Interval: time.Millisecond, Faults: in})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			_, err = l.Append([]byte("one"))
			if tc.sync == SyncAlways && !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("append under a sync fault: %v, want ErrInjected", err)
			}
			for deadline := time.Now().Add(10 * time.Second); l.Err() == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the failed sync never poisoned the log")
				}
			}
			if !errors.Is(l.Err(), faults.ErrInjected) {
				t.Fatalf("Err = %v, want ErrInjected", l.Err())
			}
			if _, err := l.Append([]byte("two")); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("append on a poisoned log: %v", err)
			}
		})
	}
}

// FuzzOpenSegment feeds arbitrary bytes to Open and Replay as the final
// segment, and as a non-final segment ahead of a valid one. Either both
// fail with ErrCorrupt, or the log replays exactly the intact-frame
// prefix and the next Append lands after it. Nothing may panic.
func FuzzOpenSegment(f *testing.F) {
	valid := framesOf([][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{9}, 40)})
	f.Add([]byte{}, true)
	f.Add(valid, true)
	f.Add(valid, false)
	f.Add(append(bytes.Clone(valid), make([]byte, 64)...), true)
	f.Add(append(bytes.Clone(valid), make([]byte, 64)...), false)
	f.Add(append(bytes.Clone(valid), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4), true)
	f.Add(valid[:len(valid)-3], true)
	f.Fuzz(func(t *testing.T, data []byte, final bool) {
		// The model: whole frames up to a zero length, a short or
		// oversized header, a short payload or a bad checksum.
		var prefix [][]byte
		good := 0
		for rest := data; len(rest) >= HeaderSize; {
			length, _ := header(rest)
			if length == 0 || length > MaxRecord {
				break
			}
			p, r, err := NextFrame(rest)
			if err != nil {
				break
			}
			prefix = append(prefix, p)
			good += len(rest) - len(r)
			rest = r
		}
		clean := good == len(data)
		if len(data) == 0 {
			final = true // the next segment would share its name
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := prefix
		if !final {
			tail := [][]byte{[]byte("next-segment")}
			tailFirst := max(uint64(len(prefix)), 1)
			if err := os.WriteFile(filepath.Join(dir, segName(tailFirst)), framesOf(tail), 0o644); err != nil {
				t.Fatal(err)
			}
			want = append(append([][]byte(nil), prefix...), tail...)
		}

		var got [][]byte
		next, rerr := Replay(dir, 0, func(_ uint64, p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		l, oerr := Open(dir, Options{})
		if !final && !clean {
			if !errors.Is(rerr, ErrCorrupt) || !errors.Is(oerr, ErrCorrupt) {
				t.Fatalf("torn non-final segment: Replay %v, Open %v, want ErrCorrupt", rerr, oerr)
			}
			return
		}
		if rerr != nil || oerr != nil {
			t.Fatalf("Replay %v, Open %v", rerr, oerr)
		}
		if next != uint64(len(want)) || len(got) != len(want) {
			t.Fatalf("replayed %d records, next=%d, want %d", len(got), next, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d differs", i)
			}
		}
		if lsn, err := l.Append([]byte("appended")); err != nil || lsn != uint64(len(want)) {
			t.Fatalf("append: lsn=%d err=%v, want %d", lsn, err, len(want))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		if _, err := Replay(dir, 0, func(_ uint64, p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		}); err != nil || len(got) != len(want)+1 || string(got[len(want)]) != "appended" {
			t.Fatalf("after append: %d records, %v", len(got), err)
		}
	})
}
