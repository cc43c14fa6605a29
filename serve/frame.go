// The binary result frame, application/x-skyband: what a query response
// looks like between Go peers (serve/client asks for it on every Query,
// so skyctl and the coordinator→worker hop get it too). JSON stays the
// default for everyone who does not ask. DESIGN.md §12 has the layout
// table and the decoder's validation order.
//
// A body is a sequence of sections, each behind internal/wal's 8-byte
// header (uint32 payload length | uint32 CRC-32C(payload), little-endian):
//
//	head     the QueryHead as JSON (small, differs per request)
//	shape    uint32 n | uint32 d | uint32 flags
//	indices  n × uint64
//	ids      n × uint64               only with flagIDs
//	counts   n × int32                only with flagCounts
//	values   n × d × float64 bits     only with flagValues
//
// Everything from shape on is the row payload: a pure function of an
// immutable result, which the server encodes once per cached result and
// answers every later hit with (Server.writeQueryResponse).
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"skybench/internal/wal"
)

// FrameContentType is the media type of the binary result frame. A
// client opts in by listing it in Accept on a query; the response's
// Content-Type says which encoding came back.
const FrameContentType = "application/x-skyband"

// IsFrameType reports whether one media-type element of an Accept or
// Content-Type header (parameters allowed) names the result frame.
func IsFrameType(element string) bool {
	mt, _, _ := strings.Cut(element, ";")
	return strings.EqualFold(strings.TrimSpace(mt), FrameContentType)
}

// ErrBadFrame reports an application/x-skyband body that cannot be
// decoded: truncated, failing a checksum, announcing lengths its bytes
// do not back, carrying flags this decoder does not know or bytes after
// the last section.
var ErrBadFrame = errors.New("serve: malformed result frame")

// Section flags of the shape section. A flag is set exactly when its
// section is present and non-empty, mirroring the JSON form's omitempty,
// so a value has one encoding.
const (
	flagIDs uint32 = 1 << iota
	flagCounts
	flagValues
	flagsKnown = flagIDs | flagCounts | flagValues
)

const shapeLen = 12 // n, d, flags

// frameFits reports whether n rows of d shipped coordinates fit the
// frame: every section's length is a uint32. (512 Mi coordinates — a
// result no one should want in one response; it is served as JSON.)
func frameFits(n, d uint64) bool {
	const most = math.MaxUint32 / 8 // 8-byte elements in one section
	return n <= most && (d == 0 || n <= most/d)
}

// beginSection reserves a section header at the end of dst; endSection
// fills it in once the section's payload has been appended behind it.
func beginSection(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

func endSection(dst []byte, at int) {
	wal.PutHeader(dst[at:], dst[at+wal.HeaderSize:])
}

// appendRowsFrame appends the row payload of a frame — the shape section
// and the array sections — to dst. It fails on rows the frame cannot
// carry: parallel arrays of different lengths, ragged values, or more
// than frameFits allows.
func appendRowsFrame(dst []byte, rows *QueryRows) ([]byte, error) {
	n, d := len(rows.Indices), 0
	var flags uint32
	if len(rows.IDs) > 0 {
		flags |= flagIDs
	}
	if len(rows.Counts) > 0 {
		flags |= flagCounts
	}
	if len(rows.Values) > 0 {
		flags |= flagValues
		d = len(rows.Values[0])
	}
	switch {
	case flags&flagIDs != 0 && len(rows.IDs) != n,
		flags&flagCounts != 0 && len(rows.Counts) != n,
		flags&flagValues != 0 && (len(rows.Values) != n || d == 0):
		return dst, fmt.Errorf("serve: result arrays of %d indices, %d ids, %d counts, %d×%d values do not frame",
			n, len(rows.IDs), len(rows.Counts), len(rows.Values), d)
	case !frameFits(uint64(n), uint64(d)):
		return dst, fmt.Errorf("serve: a result of %d×%d values exceeds the frame", n, d)
	}
	size := 2*wal.HeaderSize + shapeLen + 8*n
	if flags&flagIDs != 0 {
		size += wal.HeaderSize + 8*n
	}
	if flags&flagCounts != 0 {
		size += wal.HeaderSize + 4*n
	}
	if flags&flagValues != 0 {
		size += wal.HeaderSize + 8*n*d
	}
	le := binary.LittleEndian
	dst = slices.Grow(dst, size)

	dst, at := beginSection(dst)
	dst = le.AppendUint32(dst, uint32(n))
	dst = le.AppendUint32(dst, uint32(d))
	dst = le.AppendUint32(dst, flags)
	endSection(dst, at)

	dst, at = beginSection(dst)
	for _, ix := range rows.Indices {
		dst = le.AppendUint64(dst, uint64(ix))
	}
	endSection(dst, at)

	if flags&flagIDs != 0 {
		dst, at = beginSection(dst)
		for _, id := range rows.IDs {
			dst = le.AppendUint64(dst, id)
		}
		endSection(dst, at)
	}
	if flags&flagCounts != 0 {
		dst, at = beginSection(dst)
		for _, c := range rows.Counts {
			dst = le.AppendUint32(dst, uint32(c))
		}
		endSection(dst, at)
	}
	if flags&flagValues != 0 {
		dst, at = beginSection(dst)
		for _, row := range rows.Values {
			if len(row) != d {
				return dst[:at], fmt.Errorf("serve: ragged result rows (%d and %d coordinates) do not frame", d, len(row))
			}
			for _, v := range row {
				dst = le.AppendUint64(dst, math.Float64bits(v))
			}
		}
		endSection(dst, at)
	}
	return dst, nil
}

// badFrame wraps a decoding failure as ErrBadFrame.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// section splits the next section off b, requiring its payload to be
// exactly want bytes long.
func section(b []byte, name string, want uint64) (payload, rest []byte, err error) {
	payload, rest, err = wal.NextFrame(b)
	if err != nil {
		return nil, nil, badFrame("%s section: %v", name, err)
	}
	if uint64(len(payload)) != want {
		return nil, nil, badFrame("%s section is %d bytes, the shape implies %d", name, len(payload), want)
	}
	return payload, rest, nil
}

// decodeRowsFrame decodes a frame's row payload, which must be all of b.
// Validation runs strictly before allocation: the shape section is
// verified and parsed first, the length every later section must have
// follows from it, and their sum has to equal the bytes actually
// received — so a truncated body, trailing bytes, an n·d that overflows
// or a length that lies is rejected while the only memory in play is b
// itself, and what is then allocated is bounded by len(b). Each array is
// built only after its own section's checksum has passed. Every failure
// is an ErrBadFrame.
func decodeRowsFrame(b []byte, rows *QueryRows) error {
	shape, rest, err := section(b, "shape", shapeLen)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	n, d, flags := uint64(le.Uint32(shape[0:])), uint64(le.Uint32(shape[4:])), le.Uint32(shape[8:])
	switch {
	case flags&^flagsKnown != 0:
		return badFrame("unknown flags %#x", flags&^flagsKnown)
	case n == 0 && flags != 0:
		return badFrame("flags %#x on an empty result", flags)
	case (flags&flagValues != 0) != (d != 0):
		return badFrame("d = %d with flags %#x", d, flags)
	case !frameFits(n, d):
		return badFrame("%d×%d values exceed the frame", n, d)
	}
	want := wal.HeaderSize + n*8
	if flags&flagIDs != 0 {
		want += wal.HeaderSize + n*8
	}
	if flags&flagCounts != 0 {
		want += wal.HeaderSize + n*4
	}
	if flags&flagValues != 0 {
		want += wal.HeaderSize + n*d*8
	}
	if uint64(len(rest)) != want {
		return badFrame("%d bytes after the shape section, the shape implies %d", len(rest), want)
	}

	var out QueryRows
	sec, rest, err := section(rest, "indices", n*8)
	if err != nil {
		return err
	}
	out.Indices = make([]int, n)
	for i := range out.Indices {
		v := le.Uint64(sec[i*8:])
		if v > math.MaxInt {
			return badFrame("index %d does not fit an int", v)
		}
		out.Indices[i] = int(v)
	}
	if flags&flagIDs != 0 {
		if sec, rest, err = section(rest, "ids", n*8); err != nil {
			return err
		}
		out.IDs = make([]uint64, n)
		for i := range out.IDs {
			out.IDs[i] = le.Uint64(sec[i*8:])
		}
	}
	if flags&flagCounts != 0 {
		if sec, rest, err = section(rest, "counts", n*4); err != nil {
			return err
		}
		out.Counts = make([]int32, n)
		for i := range out.Counts {
			out.Counts[i] = int32(le.Uint32(sec[i*4:]))
		}
	}
	if flags&flagValues != 0 {
		if sec, _, err = section(rest, "values", n*d*8); err != nil {
			return err
		}
		// One flat backing array; the rows are slices of it.
		flat := make([]float64, n*d)
		for i := range flat {
			flat[i] = math.Float64frombits(le.Uint64(sec[i*8:]))
		}
		out.Values = make([][]float64, n)
		for i := range out.Values {
			out.Values[i] = flat[uint64(i)*d : uint64(i+1)*d : uint64(i+1)*d]
		}
	}
	*rows = out
	return nil
}

// appendHeadFrame appends the head section of a frame to dst.
func appendHeadFrame(dst []byte, head *QueryHead) ([]byte, error) {
	js, err := json.Marshal(head)
	if err != nil {
		return dst, err
	}
	return wal.AppendFrame(dst, js), nil
}

// DecodeQueryFrame decodes one application/x-skyband response body into
// the QueryResponse the JSON body of the same answer decodes into, bit
// for bit. Any failure wraps ErrBadFrame; see decodeRowsFrame for the
// order things are checked in.
func DecodeQueryFrame(b []byte) (*QueryResponse, error) {
	head, rest, err := wal.NextFrame(b)
	if err != nil {
		return nil, badFrame("head section: %v", err)
	}
	var resp QueryResponse
	if err := json.Unmarshal(head, &resp.QueryHead); err != nil {
		return nil, badFrame("head section: %v", err)
	}
	if err := decodeRowsFrame(rest, &resp.QueryRows); err != nil {
		return nil, err
	}
	if resp.Count != len(resp.Indices) {
		return nil, badFrame("head counts %d rows, the payload carries %d", resp.Count, len(resp.Indices))
	}
	return &resp, nil
}
