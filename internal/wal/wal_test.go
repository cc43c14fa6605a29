package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// TestFrameHelpers: AppendFrame and NextFrame are inverses over a run of
// frames, and NextFrame refuses a short header, a length past the end
// and a flipped bit without reading past what it was given.
func TestFrameHelpers(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{7}, 300)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		if got, rest, err = NextFrame(rest); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	flipped := bytes.Clone(buf)
	flipped[HeaderSize] ^= 1
	for name, b := range map[string][]byte{
		"short header":     buf[:HeaderSize-1],
		"length past end":  buf[:HeaderSize+2],
		"flipped bit":      flipped,
		"absurd length":    {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"nothing to split": nil,
	} {
		if _, _, err := NextFrame(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
