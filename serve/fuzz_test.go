package serve

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"skybench"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// FuzzQueryRequest: whatever the request body, a query either fails with
// a typed error (ErrBadQuery, ErrUnknownAlgorithm) or answers exactly
// what the brute force does over the same rows — never a panic, and
// never an allocation beyond a small bound: α and β come straight from
// the body and size buffers inside the engine.
func FuzzQueryRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"alpha":1000000000000}`,
		`{"beta":1000000000}`,
		`{"beta":4611686018427387904}`,
		`{"alpha":1099511627776,"beta":1099511627776,"skybandK":3}`,
		`{"algorithm":"qflow","alpha":1,"skybandK":2,"prefs":["max","min","ignore"]}`,
		`{"algorithm":"pbskytree","prefs":["ignore","ignore","max"]}`,
		`{"algorithm":"bskytree","skybandK":2}`,
		`{"algorithm":"auto"}`,
		`{"pivot":"random","seed":7,"beta":1}`,
		`{"skybandK":-1}`,
		`{"skybandK":1000000000000}`,
		`{"prefs":["min"]}`,
	} {
		f.Add([]byte(body))
	}
	// 16 rows of d = 3 on a coarse grid, so ties and duplicates occur.
	const n, d = 16, 3
	vals := make([]float64, n*d)
	for i := range vals {
		vals[i] = float64((i*7 + i/d) % 5)
	}
	ds, err := skybench.DatasetFromFlat(vals, n, d)
	if err != nil {
		f.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	f.Cleanup(eng.Close)
	ctx := context.Background()
	if _, err := eng.Run(ctx, ds, skybench.Query{}); err != nil { // warm the free-list
		f.Fatal(err)
	}
	prefOps := map[skybench.Pref]point.PrefOp{
		skybench.Min: point.PrefKeep, skybench.Max: point.PrefNegate, skybench.Ignore: point.PrefDrop,
	}
	typed := func(t *testing.T, err error) {
		if !errors.Is(err, skybench.ErrBadQuery) && !errors.Is(err, skybench.ErrUnknownAlgorithm) {
			t.Fatalf("untyped error: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req QueryRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		q, err := toQuery(&req)
		if err != nil {
			typed(t, err)
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := eng.Run(ctx, ds, q)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("%s allocated %d bytes over %d rows", body, alloc, n)
		}
		if err != nil {
			typed(t, err)
			return
		}
		ops := make([]point.PrefOp, d)
		for i, p := range q.Prefs {
			ops[i] = prefOps[p]
		}
		de := point.EffectiveDims(ops)
		staged := make([]float64, n*de)
		point.StagePrefs(staged, vals, n, d, ops)
		m := point.FromFlat(staged, n, de)
		if q.SkybandK > 1 {
			want, wantCnt := verify.BruteForceSkyband(m, q.SkybandK)
			if !verify.SameBand(res.Indices, res.Counts, want, wantCnt) {
				t.Fatalf("%s: band %v %v, brute force %v %v", body, res.Indices, res.Counts, want, wantCnt)
			}
		} else if want := verify.BruteForce(m); !verify.SameSkyline(res.Indices, want) {
			t.Fatalf("%s: skyline %v, brute force %v", body, res.Indices, want)
		}
	})
}
