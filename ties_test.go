package skybench_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"skybench"

	"skybench/internal/point"
	"skybench/internal/verify"
)

// equalNormRows is the equal-norm probe: n rows uniform in
// [0.85, 0.95)^d, then pairs one-ulp pairs. The first row of pair j is
// 0.9 everywhere but coordinate j mod d, which is math.Nextafter(0.9, 1);
// the second is 0.9 everywhere and dominates the first. For most j the
// two computed L1 norms are equal (DESIGN.md §9, "Numeric
// precondition").
func equalNormRows(n, d, pairs int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 0, n+2*pairs)
	for range n {
		r := make([]float64, d)
		for j := range r {
			r[j] = 0.85 + 0.1*rng.Float64()
		}
		rows = append(rows, r)
	}
	for j := range pairs {
		q, p := make([]float64, d), make([]float64, d)
		for c := range d {
			q[c], p[c] = 0.9, 0.9
		}
		q[j%d] = math.Nextafter(0.9, 1)
		rows = append(rows, q, p)
	}
	return rows
}

// TestEngineEqualNormTies holds the Engine to the brute-force oracle on
// rows whose dominators tie their computed norms: d = 8, n ∈ {2, 50,
// 2000} rows plus 20 one-ulp pairs, k ∈ {1, 3}, T ∈ {1, 2}, Hybrid under
// every combination of Ablation flags, and Q-Flow. Each must return the
// oracle's band, set and counts. An engine that skips a peer for an equal
// norm, or orders ties so that a dominator follows its victim, keeps
// dominated rows here.
func TestEngineEqualNormTies(t *testing.T) {
	const d, pairs = 8, 20
	queries := []skybench.Query{{Algorithm: skybench.QFlow}}
	for b := range 32 {
		queries = append(queries, skybench.Query{Algorithm: skybench.Hybrid, Ablation: skybench.Ablation{
			NoPrefilter:   b&1 != 0,
			NoMS:          b&2 != 0,
			NoLevel2:      b&4 != 0,
			NoPhase2Split: b&8 != 0,
			NoCodes:       b&16 != 0,
		}})
	}
	ctx := context.Background()
	for _, n := range []int{2, 50, 2000} {
		rows := equalNormRows(n, d, pairs)
		ties := 0
		for i := n; i < len(rows); i += 2 {
			if point.L1(rows[i]) == point.L1(rows[i+1]) {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("n=%d: no pair ties its computed norms; the probe tests nothing", n)
		}
		ds, err := skybench.NewDataset(rows)
		if err != nil {
			t.Fatal(err)
		}
		m := point.FromRows(rows)
		for _, k := range []int{1, 3} {
			want, wantCnt := verify.BruteForceSkyband(m, k)
			if k == 1 {
				wantCnt = nil
			}
			for _, threads := range []int{1, 2} {
				for _, q := range queries {
					q.SkybandK, q.Threads = k, threads
					res, err := testEngine.Run(ctx, ds, q)
					if err != nil {
						t.Fatal(err)
					}
					if !verify.SameBand(res.Indices, res.Counts, want, wantCnt) {
						t.Errorf("n=%d k=%d T=%d %v %+v: %d rows, oracle %d",
							n, k, threads, q.Algorithm, q.Ablation, len(res.Indices), len(want))
					}
				}
			}
		}
	}
}
