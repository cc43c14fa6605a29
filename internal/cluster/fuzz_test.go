package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"skybench"
	"skybench/internal/point"
	"skybench/internal/verify"
	"skybench/internal/wal"
	"skybench/serve"
)

// FuzzWorkerResponse: whatever body a worker sends back, as a result
// frame or as JSON, the coordinator's side of the hop — decode,
// validateResp, merge — either refuses it with a typed error or merges
// it into an answer whose global indices are in range and strictly
// ascending, and which is the brute-force band of the candidate union,
// set and counts. The fuzzed body is the answer of a worker placed on
// rows [4, 12); a fixed, well-formed sibling answers for [0, 4).
func FuzzWorkerResponse(f *testing.F) {
	const d, lo, hi = 2, 4, 12
	valid := serve.QueryResponse{
		QueryHead: serve.QueryHead{Count: 3, Stats: serve.QueryStats{InputSize: hi - lo}},
		QueryRows: serve.QueryRows{Indices: []int{0, 3, 7}, Values: [][]float64{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}}},
	}
	repeated := valid
	repeated.QueryRows = serve.QueryRows{Indices: []int{3, 0, 3}, Values: [][]float64{{0.5, 0.5}, {0.1, 0.9}, {0.5, 0.5}}}
	for _, resp := range []serve.QueryResponse{valid, repeated} {
		js, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js, false, uint8(1))
		f.Add(js, false, uint8(2))
		f.Add(frameBody(f, &resp), true, uint8(1))
	}
	f.Add([]byte(`{"count":1,"stats":{"inputSize":8},"indices":[8],"values":[[0,0]]}`), false, uint8(1))
	f.Add([]byte(`{"count":1,"stats":{"inputSize":8},"indices":[-1],"values":[[0,0]]}`), false, uint8(1))
	f.Add([]byte(`{"count":2,"stats":{"inputSize":8},"indices":[1,2],"values":[[0,0]]}`), false, uint8(1))
	nan := valid
	nan.QueryRows = serve.QueryRows{Indices: []int{0}, Values: [][]float64{{math.NaN(), 0}}}
	f.Add(frameBody(f, &nan), true, uint8(1))

	sibling := &worker{spec: WorkerSpec{Addr: "sibling", Lo: 0, Hi: lo}}
	fuzzed := &worker{spec: WorkerSpec{Addr: "fuzzed", Lo: lo, Hi: hi}}
	siblingIdx, siblingVals := []int{1, 2}, []float64{0.2, 0.8, 0.8, 0.2}
	f.Fuzz(func(t *testing.T, body []byte, frame bool, k uint8) {
		var resp *serve.QueryResponse
		if frame {
			r, err := serve.DecodeQueryFrame(body)
			if err != nil {
				if !errors.Is(err, serve.ErrBadFrame) {
					t.Fatalf("frame decode failed untyped: %v", err)
				}
				return
			}
			resp = r
		} else {
			var r serve.QueryResponse
			if json.Unmarshal(body, &r) != nil {
				return // the wire client returns the decoder's error as the call's
			}
			resp = &r
		}
		if err := validateResp(fuzzed, resp, d); err != nil {
			if !errors.Is(err, errMalformed) && !errors.Is(err, skybench.ErrEpochSkew) {
				t.Fatalf("validateResp failed untyped: %v", err)
			}
			return
		}
		vals := append([]float64(nil), siblingVals...)
		rows := []int{}
		for _, li := range siblingIdx {
			rows = append(rows, sibling.spec.Lo+li)
		}
		for j, row := range resp.Values {
			vals = append(vals, row...)
			rows = append(rows, fuzzed.spec.Lo+resp.Indices[j])
		}
		pos, counts, _, err := merge(context.Background(), testEngine, rows, vals, d, int(k%4), nil)
		if err != nil {
			t.Fatalf("merge of a validated response: %v", err)
		}
		if counts != nil && len(counts) != len(pos) {
			t.Fatalf("merged %d positions with %d counts", len(pos), len(counts))
		}
		for j, p := range pos {
			if row := rows[p]; row < 0 || row >= hi {
				t.Fatalf("merged row %d outside [0, %d)", row, hi)
			} else if j > 0 && row <= rows[pos[j-1]] {
				t.Fatalf("merged positions %v of rows %v not strictly ascending", pos, rows)
			}
		}
		want, wantCnt := verify.BruteForceSkyband(point.FromFlat(vals, len(rows), d), int(k%4))
		if k%4 <= 1 {
			wantCnt = nil
		}
		if !verify.SameBand(pos, counts, want, wantCnt) {
			t.Fatalf("merged positions %v counts %v, brute force %v counts %v", pos, counts, want, wantCnt)
		}
	})
}

// frameBody encodes resp as the application/x-skyband body a worker
// sends: the head as JSON, then the shape, indices and values sections
// (DESIGN.md §12 has the layout).
func frameBody(tb testing.TB, resp *serve.QueryResponse) []byte {
	head, err := json.Marshal(resp.QueryHead)
	if err != nil {
		tb.Fatal(err)
	}
	le := binary.LittleEndian
	n, d := len(resp.Indices), len(resp.Values[0])
	const flagValues = 4
	shape := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, uint32(n)), uint32(d)), flagValues)
	var idx, vals []byte
	for _, ix := range resp.Indices {
		idx = le.AppendUint64(idx, uint64(ix))
	}
	for _, row := range resp.Values {
		for _, v := range row {
			vals = le.AppendUint64(vals, math.Float64bits(v))
		}
	}
	b := wal.AppendFrame(nil, head)
	for _, section := range [][]byte{shape, idx, vals} {
		b = wal.AppendFrame(b, section)
	}
	return b
}
