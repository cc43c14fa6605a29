package wal

import (
	"bytes"
	"errors"
	"testing"
)

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
