package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"skybench/internal/wal"
)

// frameSeeds are row payloads of every kind the server produces: plain,
// stream-backed (ids), k-skyband (counts), omitValues, empty.
func frameSeeds() []QueryRows {
	vals := [][]float64{{1, 9.5, math.Inf(1)}, {-0.0, 8, 2}, {math.SmallestNonzeroFloat64, 7, math.MaxFloat64}}
	return []QueryRows{
		{Indices: []int{}},
		{Indices: []int{0, 7, 1 << 40}},
		{Indices: []int{0, 7, 9}, Values: vals},
		{Indices: []int{0, 7, 9}, IDs: []uint64{3, 1, math.MaxUint64}, Values: vals},
		{Indices: []int{0, 7, 9}, Counts: []int32{0, 2, -1}, Values: vals},
		{Indices: []int{0, 7, 9}, IDs: []uint64{3, 1, 2}, Counts: []int32{0, 1, 2}},
		{Indices: []int{4}, IDs: []uint64{3}, Counts: []int32{1}, Values: [][]float64{{0.25}}},
	}
}

func mustFrame(t testing.TB, rows *QueryRows) []byte {
	t.Helper()
	b, err := appendRowsFrame(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reframe rebuilds a payload from raw sections, each given a correct
// header — for seeds whose contents lie while their framing is intact.
func reframe(sections ...[]byte) []byte {
	var b []byte
	for _, s := range sections {
		b = wal.AppendFrame(b, s)
	}
	return b
}

func shapeSection(n, d, flags uint32) []byte {
	le := binary.LittleEndian
	return le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, n), d), flags)
}

func TestFrameRoundTrip(t *testing.T) {
	for i, rows := range frameSeeds() {
		b := mustFrame(t, &rows)
		var got QueryRows
		if err := decodeRowsFrame(b, &got); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("seed %d: decoded %+v, encoded %+v", i, got, rows)
		}
		for r := range rows.Values {
			for j, v := range rows.Values[r] {
				if math.Float64bits(got.Values[r][j]) != math.Float64bits(v) {
					t.Errorf("seed %d: value [%d][%d] changed bits", i, r, j)
				}
			}
		}
		if len(got.Values) > 1 {
			d := uintptr(len(got.Values[0]))
			if uintptr(unsafe.Pointer(&got.Values[1][0]))-uintptr(unsafe.Pointer(&got.Values[0][0])) != 8*d {
				t.Errorf("seed %d: rows are not slices of one backing array", i)
			}
		}
	}
}

// TestFrameRejects: each way a payload can lie is a typed error, decided
// before the lie is believed.
func TestFrameRejects(t *testing.T) {
	good := mustFrame(t, &QueryRows{Indices: []int{1, 2}, Values: [][]float64{{1, 2}, {3, 4}}})
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	idx := make([]byte, 16)
	cases := map[string][]byte{
		"empty":               nil,
		"truncated":           good[:len(good)-1],
		"trailing byte":       append(bytes.Clone(good), 0),
		"flipped value bit":   flipped,
		"unknown flag":        reframe(shapeSection(2, 0, 1<<5), idx),
		"flags on empty":      reframe(shapeSection(0, 0, flagIDs), nil, nil),
		"values without d":    reframe(shapeSection(2, 0, flagValues), idx, nil),
		"d without values":    reframe(shapeSection(2, 3, 0), idx),
		"n·d overflow":        reframe(shapeSection(1<<28, 1<<31, flagValues), idx, nil),
		"n past the frame":    reframe(shapeSection(1<<30, 0, 0), idx),
		"lying n":             reframe(shapeSection(1<<20, 0, 0), idx),
		"short section":       reframe(shapeSection(2, 0, flagCounts), idx, make([]byte, 4)),
		"swapped sections":    reframe(shapeSection(2, 0, flagCounts), make([]byte, 8), idx),
		"index past an int":   reframe(shapeSection(1, 0, 0), bytes.Repeat([]byte{0xff}, 8)),
		"short shape":         reframe(make([]byte, 8)),
		"header only":         good[:wal.HeaderSize],
		"length past the end": append(binary.LittleEndian.AppendUint32(nil, math.MaxUint32), 0, 0, 0, 0),
	}
	for name, b := range cases {
		var rows QueryRows
		err := decodeRowsFrame(b, &rows)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		if !reflect.DeepEqual(rows, QueryRows{}) {
			t.Errorf("%s: rows written on failure: %+v", name, rows)
		}
	}
}

// TestFrameAllocationBound: a shape that promises half a gigabyte behind
// a few bytes is refused without allocating for it.
func TestFrameAllocationBound(t *testing.T) {
	lie := reframe(shapeSection(1<<26, 1, flagValues), make([]byte, 64), make([]byte, 64))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var rows QueryRows
	err := decodeRowsFrame(lie, &rows)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("rejecting a %d-byte lie allocated %d bytes", len(lie), grew)
	}
}

func TestFrameFits(t *testing.T) {
	for _, c := range []struct {
		n, d uint64
		want bool
	}{
		{0, 0, true}, {1434, 6, true}, {1 << 29, 0, false}, {1<<29 - 1, 0, true},
		{1 << 26, 8, false}, {1<<26 - 1, 8, true}, {1 << 28, 1 << 40, false},
	} {
		if got := frameFits(c.n, c.d); got != c.want {
			t.Errorf("frameFits(%d, %d) = %v, want %v", c.n, c.d, got, c.want)
		}
	}
}

func TestFrameEncoderRejects(t *testing.T) {
	for name, rows := range map[string]QueryRows{
		"ragged rows":   {Indices: []int{1, 2}, Values: [][]float64{{1, 2}, {3}}},
		"short ids":     {Indices: []int{1, 2}, IDs: []uint64{1}},
		"long counts":   {Indices: []int{1}, Counts: []int32{1, 2}},
		"zero-dim rows": {Indices: []int{1}, Values: [][]float64{{}}},
	} {
		if b, err := appendRowsFrame(nil, &rows); err == nil {
			t.Errorf("%s: framed as %d bytes, want an error", name, len(b))
		}
	}
}

// FuzzDecodeFrame: whatever the bytes, the decoder returns a typed error
// or a value that re-encodes to exactly those bytes — never a panic, and
// never arrays larger than the input backs.
func FuzzDecodeFrame(f *testing.F) {
	for _, rows := range frameSeeds() {
		b := mustFrame(f, &rows)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		for _, at := range []int{0, 5, wal.HeaderSize + 1, wal.HeaderSize + 9, len(b) / 2, len(b) - 1} {
			flip := bytes.Clone(b)
			flip[at] ^= 0x10
			f.Add(flip)
		}
		head, _ := appendHeadFrame(nil, &QueryHead{Collection: "c", Count: len(rows.Indices)})
		f.Add(append(head, b...))
	}
	idx := make([]byte, 16)
	f.Add(reframe(shapeSection(1<<28, 1<<31, flagValues), idx, nil))
	f.Add(reframe(shapeSection(1<<20, 2, flagValues), idx, idx))
	f.Add(reframe(shapeSection(2, 0, flagCounts|flagIDs), idx, idx[:8], idx))
	f.Add(reframe(shapeSection(2, 0, 1<<7), idx))

	f.Fuzz(func(t *testing.T, b []byte) {
		var rows QueryRows
		err := decodeRowsFrame(b, &rows)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
		} else {
			n := len(rows.Indices)
			if 8*n > len(b) || (len(rows.Values) > 0 && 8*n*len(rows.Values[0]) > len(b)) {
				t.Fatalf("decoded %d rows out of %d bytes", n, len(b))
			}
			again, err := appendRowsFrame(nil, &rows)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("accepted bytes do not re-encode to themselves (%v)", err)
			}
		}
		// The whole-body decoder sees the same bytes as head + payload.
		if resp, err := DecodeQueryFrame(b); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
		} else if resp.Count != len(resp.Indices) {
			t.Fatalf("accepted a head of %d rows over %d", resp.Count, len(resp.Indices))
		}
	})
}
