package prefilter

import (
	"math"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

// subspaceOps keeps the even columns of a d-dimensional source and
// negates every fourth: a view that is neither the identity nor
// order-trivial.
func subspaceOps(d int) []point.PrefOp {
	ops := make([]point.PrefOp, d)
	for j := range ops {
		switch {
		case j%2 == 1:
			ops[j] = point.PrefDrop
		case j%4 == 0:
			ops[j] = point.PrefNegate
		}
	}
	return ops
}

// staged returns the explicitly staged copy of m under ops (m itself for
// no ops) — what the reference Filter runs on.
func staged(m point.Matrix, ops []point.PrefOp) point.Matrix {
	if ops == nil {
		return m
	}
	de := point.EffectiveDims(ops)
	dst := make([]float64, m.N()*de)
	point.StagePrefs(dst, m.Flat(), m.N(), m.D(), ops)
	return point.FromFlat(dst, m.N(), de)
}

// TestRunnerMatchesFilter checks that the reusable Runner, reading the
// source through a view, selects exactly the same surviving set as the
// reference Filter does on the staged copy — across distributions,
// thread counts, transforms and repeated (reused) calls — and that the
// norms it returns are point.L1 of the staged survivors bit for bit.
func TestRunnerMatchesFilter(t *testing.T) {
	r := NewRunner()
	for _, threads := range []int{1, 3, 8} {
		pool := par.NewPool(threads)
		team := pool.Lease(threads)
		for _, dist := range dataset.AllDistributions {
			for _, n := range []int{1, 17, 1000, 5000} {
				for _, ops := range [][]point.PrefOp{nil, subspaceOps(6)} {
					m := dataset.Generate(dist, n, 6, 99)
					sm := staged(m, ops)
					want := Filter(sm, l1s(sm), 0, threads, nil)
					var v point.View
					v.Reset(m.Flat(), n, 6, ops)
					got, gotL1 := r.Filter(v, 0, 1, team, nil)
					if len(got) != len(want) || len(gotL1) != len(want) {
						t.Fatalf("%s n=%d t=%d ops=%v: runner kept %d (%d norms), filter kept %d",
							dist, n, threads, ops, len(got), len(gotL1), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s n=%d t=%d ops=%v: survivor %d is %d, want %d",
								dist, n, threads, ops, i, got[i], want[i])
						}
						if l1 := point.L1(sm.Row(got[i])); math.Float64bits(gotL1[i]) != math.Float64bits(l1) {
							t.Fatalf("%s n=%d t=%d ops=%v: survivor %d has L1 %v, want %v",
								dist, n, threads, ops, i, gotL1[i], l1)
						}
					}
				}
			}
		}
		pool.Close()
	}
}

// TestRunnerZeroAlloc asserts the steady-state Filter call allocates
// nothing once scratch is warm, with and without a transform.
func TestRunnerZeroAlloc(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 4000, 8, 5)
	pool := par.NewPool(4)
	defer pool.Close()
	team := pool.Lease(4)
	dts := stats.NewDTCounters(4)
	r := NewRunner()
	for _, ops := range [][]point.PrefOp{nil, subspaceOps(8)} {
		var v point.View
		v.Reset(m.Flat(), m.N(), m.D(), ops)
		r.Filter(v, 0, 1, team, dts) // warm scratch
		allocs := testing.AllocsPerRun(20, func() {
			r.Filter(v, 0, 1, team, dts)
		})
		if allocs != 0 {
			t.Errorf("ops=%v: Runner.Filter allocates %.1f per call, want 0", ops, allocs)
		}
	}
}

// TestRunnerNeverPrunesSkyline re-checks the safety property on the
// Runner: no row of the k-skyband is ever pruned. The widths cover the
// three unrolled kernel widths — pass 1 runs the short-circuit body at
// d = 4 and 8 and the branch-free one at d = 6 — and d = 5, which has
// none.
func TestRunnerNeverPrunesSkyline(t *testing.T) {
	r := NewRunner()
	for _, threads := range []int{1, 3} {
		pool := par.NewPool(threads)
		team := pool.Lease(threads)
		for _, dist := range dataset.AllDistributions {
			for _, d := range []int{4, 5, 6, 8} {
				m := dataset.Generate(dist, 800, d, 31)
				for _, k := range []int{1, 3} {
					surv, _ := r.Filter(m.View(), 4, k, team, nil)
					kept := make(map[int]bool, len(surv))
					for _, i := range surv {
						kept[i] = true
					}
					band, _ := verify.BruteForceSkyband(m, k)
					for _, i := range band {
						if !kept[i] {
							t.Fatalf("%s d=%d k=%d T=%d: band row %d was pruned", dist, d, k, threads, i)
						}
					}
				}
			}
		}
		pool.Close()
	}
}

// BenchmarkRunnerFilter times the one sweep a Hybrid run makes over its
// whole input — transform, L1 norms and both pre-filter passes. The
// first two cases are the scan-bound shape (1 M correlated rows, almost
// all pruned, where pass 1's short-circuit kernel body pays); anti-d8 is
// batch_anti's (32 768 anticorrelated rows, few pruned, where it costs).
// SetBytes is the source size, so the figure
// reads as MB/s against what the host streams from memory.
func BenchmarkRunnerFilter(b *testing.B) {
	const d = 8
	corr := dataset.Generate(dataset.Correlated, 1_000_000, d, 1)
	anti := dataset.Generate(dataset.Anticorrelated, 32_768, d, 1)
	half := make([]point.PrefOp, d)
	for j := d / 2; j < d; j++ {
		half[j] = point.PrefDrop
	}
	threads := par.DefaultThreads()
	pool := par.NewPool(threads)
	defer pool.Close()
	team := pool.Lease(threads)
	for _, bc := range []struct {
		name string
		m    point.Matrix
		ops  []point.PrefOp
	}{
		{"identity-d8", corr, nil},
		{"subspace-4of8", corr, half},
		{"anti-d8", anti, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := bc.m.N()
			var v point.View
			v.Reset(bc.m.Flat(), n, d, bc.ops)
			r := NewRunner()
			r.Filter(v, 0, 1, team, nil) // warm scratch
			b.SetBytes(int64(n * d * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Filter(v, 0, 1, team, nil)
			}
		})
	}
}
