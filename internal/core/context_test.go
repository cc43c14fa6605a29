package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

// lease returns the whole of a fresh pool of the given size as one team,
// released with its pool when the test ends.
func lease(tb testing.TB, threads int) *par.Team {
	p := par.NewPool(threads)
	tm := p.Lease(threads)
	tb.Cleanup(func() {
		tm.Release()
		p.Close()
	})
	return tm
}

// leaseSizes leases one team of every size from 1 to max, indexed by
// size, for tests that sweep the thread count.
func leaseSizes(tb testing.TB, max int) []*par.Team {
	teams := make([]*par.Team, max+1)
	for t := 1; t <= max; t++ {
		teams[t] = lease(tb, t)
	}
	return teams
}

// TestContextHybridMatchesFresh runs one Context across many workloads
// and checks every result against a fresh throwaway run — scratch reuse
// must never leak state between runs.
func TestContextHybridMatchesFresh(t *testing.T) {
	c := NewContext()
	tm := lease(t, 4)
	for _, dist := range dataset.AllDistributions {
		for _, n := range []int{50, 1000, 3000} {
			for _, d := range []int{2, 5, 8, 12} {
				m := dataset.Generate(dist, n, d, int64(n+d))
				got := c.Hybrid(m.View(), HybridOptions{Team: tm})
				want := Hybrid(m, HybridOptions{Team: tm})
				if !verify.SameSkyline(got, want) {
					t.Fatalf("%s n=%d d=%d: context result diverges from fresh run", dist, n, d)
				}
				if !verify.IsSkyline(m, got) {
					t.Fatalf("%s n=%d d=%d: context result is not the skyline", dist, n, d)
				}
			}
		}
	}
}

// TestContextQFlowMatchesFresh is the same check for Q-Flow, including
// the L1 output-order contract.
func TestContextQFlowMatchesFresh(t *testing.T) {
	c := NewContext()
	tm := lease(t, 4)
	for _, dist := range dataset.AllDistributions {
		for _, n := range []int{50, 1000, 3000} {
			m := dataset.Generate(dist, n, 6, int64(n))
			got := c.QFlow(m.View(), QFlowOptions{Team: tm, Alpha: 256})
			if !verify.IsSkyline(m, got) {
				t.Fatalf("%s n=%d: context Q-Flow result is not the skyline", dist, n)
			}
			last := -1.0
			for _, i := range got {
				l1 := point.L1(m.Row(i))
				if l1 < last {
					t.Fatalf("%s n=%d: context Q-Flow output not in L1 order", dist, n)
				}
				last = l1
			}
		}
	}
}

// TestContextThreadResize checks that a Context survives team-size
// changes between runs (its per-thread counters follow the team).
func TestContextThreadResize(t *testing.T) {
	c := NewContext()
	m := dataset.Generate(dataset.Anticorrelated, 2000, 7, 3)
	want := Hybrid(m, HybridOptions{Team: lease(t, 1)})
	for _, threads := range []int{1, 4, 2, 8, 3} {
		got := c.Hybrid(m.View(), HybridOptions{Team: lease(t, threads)})
		if !verify.SameSkyline(got, want) {
			t.Fatalf("threads=%d: result diverges after a team-size change", threads)
		}
	}
}

// TestRunFollowsRebalancedTeam runs Hybrid on a team leased while
// another held the whole pool, so it starts with one thread. The holder
// releases the pool from the run's first Progressive callback; the next
// α-block's rebalance grows the team to the whole pool and the remaining
// phases dispatch on it. A run that shares the pool with a team leased
// in its callback shrinks to its half instead. Both answers are exact.
func TestRunFollowsRebalancedTeam(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 6000, 5, 21)
	want := verify.BruteForce(m)
	p := par.NewPool(4)
	defer p.Close()

	holder := p.Lease(0)
	tm := p.Lease(0)
	if tm.Threads() != 1 {
		t.Fatalf("lease beside a whole-pool team has %d threads, want 1", tm.Threads())
	}
	c := NewContext()
	var st stats.Stats
	got := c.Hybrid(m.View(), HybridOptions{Team: tm, Alpha: 256, Stats: &st, Progressive: func([]int) {
		if holder != nil {
			holder.Release()
			holder = nil
		}
	}})
	if !verify.SameSkyline(got, want) {
		t.Fatal("grown run: wrong skyline")
	}
	if c.tEff != 4 || st.Threads != 4 {
		t.Fatalf("grown run ended on %d threads (largest %d), want 4 and 4", c.tEff, st.Threads)
	}

	var other *par.Team
	st = stats.Stats{}
	got = c.Hybrid(m.View(), HybridOptions{Team: tm, Alpha: 256, Stats: &st, Progressive: func([]int) {
		if other == nil {
			other = p.Lease(0)
		}
	}})
	if !verify.SameSkyline(got, want) {
		t.Fatal("shrunk run: wrong skyline")
	}
	if c.tEff != 2 || st.Threads != 4 {
		t.Fatalf("shrunk run ended on %d threads (largest %d), want 2 and 4", c.tEff, st.Threads)
	}
	if other.Threads() != 2 {
		t.Fatalf("team leased in the callback has %d threads, want its share 2", other.Threads())
	}
	other.Release()
	tm.Release()
}

// TestContextZeroAlloc is the steady-state guard of the issue: after a
// warm-up call, repeated Hybrid and QFlow runs on a reused Context must
// perform zero allocations.
func TestContextZeroAlloc(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 20000, 8, 42)
	c := NewContext()
	tm := lease(t, 4)

	opt := HybridOptions{Team: tm}
	c.Hybrid(m.View(), opt) // warm scratch
	if allocs := testing.AllocsPerRun(10, func() { c.Hybrid(m.View(), opt) }); allocs != 0 {
		t.Errorf("Context.Hybrid allocates %.1f per run, want 0", allocs)
	}

	qopt := QFlowOptions{Team: tm}
	c.QFlow(m.View(), qopt) // warm scratch
	if allocs := testing.AllocsPerRun(10, func() { c.QFlow(m.View(), qopt) }); allocs != 0 {
		t.Errorf("Context.QFlow allocates %.1f per run, want 0", allocs)
	}
}

// TestRadixSortIdx cross-checks the parallel radix sort against the
// expected stable order on random keys.
func TestRadixSortIdx(t *testing.T) {
	c := NewContext()
	c.ensure(lease(t, 4))
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 17, 1000, 10000} {
		for _, keyBits := range []int{4, 13, 21, 64} {
			c.keys = grow(c.keys, n)
			limit := uint64(1)<<uint(keyBits%64) - 1
			if keyBits == 64 {
				limit = ^uint64(0)
			}
			for i := range c.keys {
				c.keys[i] = rng.Uint64() & limit
			}
			idx := c.radixSortIdx(n, keyBits)
			if len(idx) != n {
				t.Fatalf("n=%d bits=%d: got %d indices", n, keyBits, len(idx))
			}
			seen := make([]bool, n)
			for i, v := range idx {
				if seen[v] {
					t.Fatalf("n=%d bits=%d: duplicate index %d", n, keyBits, v)
				}
				seen[v] = true
				if i > 0 {
					ka, kb := c.keys[idx[i-1]], c.keys[v]
					if ka > kb {
						t.Fatalf("n=%d bits=%d: keys out of order at %d", n, keyBits, i)
					}
					if ka == kb && idx[i-1] > v {
						t.Fatalf("n=%d bits=%d: sort not stable at %d", n, keyBits, i)
					}
				}
			}
		}
	}
}

// TestApplyPerm checks the in-place cycle-following permutation apply
// against a reference gather on random permutations.
func TestApplyPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		d := 1 + rng.Intn(8)
		flat := make([]float64, n*d)
		wl1 := make([]float64, n)
		worig := make([]int, n)
		wmask := make([]point.Mask, n)
		wcode := make([]uint64, n)
		for i := 0; i < n; i++ {
			for k := 0; k < d; k++ {
				flat[i*d+k] = rng.Float64()
			}
			wl1[i] = rng.Float64()
			worig[i] = rng.Int()
			wmask[i] = point.Mask(rng.Intn(256))
			wcode[i] = rng.Uint64()
		}
		perm := rng.Perm(n)

		wantFlat := make([]float64, n*d)
		wantL1 := make([]float64, n)
		wantOrig := make([]int, n)
		wantMask := make([]point.Mask, n)
		wantCode := make([]uint64, n)
		for i, j := range perm {
			copy(wantFlat[i*d:(i+1)*d], flat[j*d:(j+1)*d])
			wantL1[i] = wl1[j]
			wantOrig[i] = worig[j]
			wantMask[i] = wmask[j]
			wantCode[i] = wcode[j]
		}

		applyPerm(perm, flat, d, wl1, wmask, worig, wcode)
		for i := 0; i < n*d; i++ {
			if flat[i] != wantFlat[i] {
				t.Fatalf("trial %d: row data mismatch at %d", trial, i)
			}
		}
		for i := 0; i < n; i++ {
			if wl1[i] != wantL1[i] || worig[i] != wantOrig[i] || wmask[i] != wantMask[i] || wcode[i] != wantCode[i] {
				t.Fatalf("trial %d: metadata mismatch at %d", trial, i)
			}
		}
	}
}

// TestSortIdxByFloat exercises the allocation-free quicksort on adversarial
// patterns (sorted, reversed, constant, random).
func TestSortIdxByFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	patterns := []func(i, n int) float64{
		func(i, n int) float64 { return float64(i) },
		func(i, n int) float64 { return float64(n - i) },
		func(i, n int) float64 { return 1.0 },
		func(i, n int) float64 { return rng.Float64() },
		func(i, n int) float64 { return float64(i % 7) },
	}
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 5000} {
		for pi, pat := range patterns {
			key := make([]float64, n)
			for i := range key {
				key[i] = pat(i, n)
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sortIdxByFloat(idx, key)
			seen := make([]bool, n)
			for i, v := range idx {
				if seen[v] {
					t.Fatalf("n=%d pat=%d: duplicate index", n, pi)
				}
				seen[v] = true
				if i > 0 && key[idx[i-1]] > key[v] {
					t.Fatalf("n=%d pat=%d: out of order at %d", n, pi, i)
				}
			}
		}
	}
}

// TestSortIdxByOrder runs the run sort on TestSortIdxByFloat's norm
// patterns over rows on a coarse grid, so norms tie often: the result
// must be a permutation in (L1, coordinates) order.
func TestSortIdxByOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	patterns := []func(i, n int) float64{
		func(i, n int) float64 { return float64(i) },
		func(i, n int) float64 { return float64(n - i) },
		func(i, n int) float64 { return 1.0 },
		func(i, n int) float64 { return rng.Float64() },
		func(i, n int) float64 { return float64(i % 7) },
	}
	const d = 3
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 5000} {
		for pi, pat := range patterns {
			l1 := make([]float64, n)
			rows := make([]float64, n*d)
			for i := range l1 {
				l1[i] = pat(i, n)
				for k := 0; k < d; k++ {
					rows[i*d+k] = float64(rng.Intn(3))
				}
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sortIdxByOrder(idx, l1, rows, d)
			seen := make([]bool, n)
			for i, v := range idx {
				if seen[v] {
					t.Fatalf("n=%d pat=%d: duplicate index", n, pi)
				}
				seen[v] = true
				if i == 0 {
					continue
				}
				u := idx[i-1]
				if cmp.Or(cmp.Compare(l1[u], l1[v]), slices.Compare(rows[u*d:(u+1)*d], rows[v*d:(v+1)*d])) > 0 {
					t.Fatalf("n=%d pat=%d: out of order at %d", n, pi, i)
				}
			}
		}
	}
}
