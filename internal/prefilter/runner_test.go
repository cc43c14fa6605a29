package prefilter

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// dropOps drops every column j with j mod 3 = 1 of a d-dimensional
// source and keeps the rest as they are: at d = 8 a drop-only view of
// five columns, a shape pass 1's queue takes its vector body on.
func dropOps(d int) []point.PrefOp {
	ops := make([]point.PrefOp, d)
	for j := range ops {
		if j%3 == 1 {
			ops[j] = point.PrefDrop
		}
	}
	return ops
}

// tight returns n rows of d columns correlated closely enough that pass
// 1 keeps few candidates, as on batch_corr's input, so its threads keep
// their rows: each row is a shared level plus a small per-column offset,
// both on a grid of 1/64, so rows tie in coordinates and in norms.
func tight(n, d int, seed int64) point.Matrix {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, n*d)
	for i := 0; i < n; i++ {
		level := float64(rng.Intn(256)) / 64
		for c := 0; c < d; c++ {
			flat[i*d+c] = level + float64(rng.Intn(8))/64
		}
	}
	return point.FromFlat(flat, n, d)
}

// survivors flattens the Rows a Filter call returns into what At
// returns for each survivor: its row index, its norm and its row (nil
// where At returns none).
func survivors(rs *Rows) (idx []int, l1 []float64, rows [][]float64) {
	if rs == nil {
		return nil, nil, nil
	}
	for i := 0; i < rs.Len(); i++ {
		j, x, row := rs.At(i)
		idx, l1, rows = append(idx, j), append(l1, x), append(rows, row)
	}
	return idx, l1, rows
}

// checkAt holds what At returned for each survivor (survivors) to its
// contract against sm, the staged copy of the filtered view: where it
// returns a row, that row is the view row and the norm is point.L1 of
// it, bit for bit; where it returns none, the norm is 0.
func checkAt(t *testing.T, at string, sm point.Matrix, idx []int, l1 []float64, rows [][]float64) {
	t.Helper()
	for i, j := range idx {
		if rows[i] == nil {
			if math.Float64bits(l1[i]) != 0 {
				t.Fatalf("%s: survivor %d (row %d) has no row but the norm %v", at, i, j, l1[i])
			}
			continue
		}
		row := sm.Row(j)
		if !slices.EqualFunc(rows[i], row, sameBits) {
			t.Fatalf("%s: survivor %d (row %d) is %v, the view row %v", at, i, j, rows[i], row)
		}
		if want := point.L1(row); !sameBits(l1[i], want) {
			t.Fatalf("%s: survivor %d (row %d) has L1 %v, want %v", at, i, j, l1[i], want)
		}
	}
}

// TestRunnerMatchesFilter checks that the reusable Runner, reading the
// source through a view, selects exactly the same surviving set as the
// reference Filter does on the staged copy — across distributions,
// thread counts, widths, transforms and repeated (reused) calls — and
// that At keeps its contract (checkAt): a survivor comes with its row
// and norm exactly where the segment that filed it kept its rows, and
// those are the staged row and point.L1 of it, bit for bit. The table
// has segments on both sides of storeShare (correlated inputs keep
// their rows, anticorrelated ones do not). The identity view and the
// drop-only view at d = 8 are the shapes pass 1's queue takes its
// vector body on, and a segment that keeps its rows at view width 8
// hands them to pass 2's union scan, which takes its own at d = 8
// (point.TestVectorDispatch names both), where the CPU has them, so
// every case runs with the vector bodies on and again off, and both
// must book the same dominance tests. T runs 1–4 and 8, so unions of
// one chunk of 8 points and of several meet the pass-2 scan. The last
// calls run one Runner over a drop-only view, the identity and another
// drop-only column set in turn, so a queue column left over from the
// call before (a stale NaN or a stale value) changes the survivors.
func TestRunnerMatchesFilter(t *testing.T) {
	defer point.SetVectorBodies(point.VectorBodies())
	scans := []bool{false}
	if point.HasAVX512BW() {
		scans = append(scans, true)
	} else {
		t.Log("no AVX512F+BW and POPCNT with OS-saved ZMM state: only the Go body runs")
	}
	kept, unionScans, stopped := map[bool]int{}, map[bool]int{}, map[bool]int{}
	r := NewRunner()
	// check runs r over m through ops with each body, with and without
	// the stop rule, and holds it to the reference.
	check := func(m point.Matrix, ops []point.PrefOp, team *par.Team, at0 string) {
		t.Helper()
		for _, stop := range []bool{false, true} {
			at := fmt.Sprintf("%s stop=%v", at0, stop)
			n, d, threads := m.N(), m.D(), team.Threads()
			sm := staged(m, ops)
			want := Filter(sm, l1s(sm), 0, threads, stop, nil)
			var v point.View
			v.Reset(m.Flat(), n, d, ops)
			dts := stats.NewDTCounters(threads)
			booked := map[bool]uint64{}
			for _, scan := range scans {
				point.SetVectorBodies(scan)
				at := fmt.Sprintf("%s scan=%v", at, scan)
				dts.Reset()
				rs := r.Filter(v, 0, 1, stop, team, dts)
				got, gotL1, gotRows := survivors(rs)
				union8 := false
				for _, sg := range r.rows.segs[:threads] {
					if sg.hi > sg.lo {
						stopped[stop]++
						continue
					}
					if sg.n > 0 {
						kept[!sg.over]++
					}
					// Pass 2 scans this segment's stored rows at width 8.
					union8 = union8 || v.D() == 8 && !sg.over && sg.n > 0
				}
				if union8 {
					unionScans[len(r.ql1) > DefaultBeta]++
				}
				// A survivor comes with its row where the segment that
				// filed it kept its rows, and never from a range.
				for i := range got {
					tid := len(rs.first) - 1
					for rs.first[tid] > i {
						tid--
					}
					sg := &r.rows.segs[tid]
					if want := i-rs.first[tid] < sg.n && !sg.over; (gotRows[i] != nil) != want {
						t.Fatalf("%s: survivor %d of thread %d came with a row %v, want %v", at, i, tid, gotRows[i] != nil, want)
					}
				}
				booked[scan] = dts.Sum()
				if len(got) != len(want) {
					t.Fatalf("%s: runner kept %d, filter kept %d", at, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: survivor %d is %d, want %d", at, i, got[i], want[i])
					}
				}
				checkAt(t, at, sm, got, gotL1, gotRows)
			}
			if len(scans) == 2 && booked[false] != booked[true] {
				t.Fatalf("%s: %d dominance tests on the Go bodies, %d on the vector bodies", at, booked[false], booked[true])
			}
		}
	}
	for _, threads := range []int{1, 2, 3, 4, 8} {
		pool := par.NewPool(threads)
		team := pool.Lease(threads)
		for _, dist := range dataset.AllDistributions {
			for _, d := range []int{6, 8} {
				for _, n := range []int{1, 17, 1000, 5000} {
					for _, ops := range [][]point.PrefOp{nil, subspaceOps(d), dropOps(d)} {
						m := dataset.Generate(dist, n, d, 99)
						check(m, ops, team, fmt.Sprintf("%s d=%d n=%d t=%d ops=%v", dist, d, n, threads, ops))
					}
				}
			}
		}
		for _, n := range []int{1000, 5000} {
			m := tight(n, 8, int64(threads))
			check(m, nil, team, fmt.Sprintf("tight d=8 n=%d t=%d", n, threads))
		}
		pool.Close()
	}
	if kept[true] == 0 || kept[false] == 0 {
		t.Fatalf("%d segments kept their rows and %d did not: the table misses one side of storeShare", kept[true], kept[false])
	}
	if stopped[false] != 0 || stopped[true] == 0 {
		t.Fatalf("%d threads stopped filtering without the stop rule and %d with it: want none and some", stopped[false], stopped[true])
	}
	if unionScans[false] == 0 || unionScans[true] == 0 {
		t.Fatalf("pass 2 scanned stored rows at width 8 against %d unions of at most %d points and %d larger: the table misses one", unionScans[false], DefaultBeta, unionScans[true])
	}

	pool := par.NewPool(3)
	defer pool.Close()
	team := pool.Lease(3)
	low3 := make([]point.PrefOp, 8)
	for j := 3; j < 8; j++ {
		low3[j] = point.PrefDrop
	}
	for _, dist := range dataset.AllDistributions {
		m := dataset.Generate(dist, 5000, 8, 98)
		for _, ops := range [][]point.PrefOp{dropOps(8), nil, low3} {
			check(m, ops, team, fmt.Sprintf("reuse %s ops=%v", dist, ops))
		}
	}
}

// TestRunnerNaNUnionNorm gives the filter a row whose norm is NaN on
// rows it keeps at width 8: the eighth row of the first thread's range
// is NaN in one column and 0, the data's least value, in the rest, so it
// would fill the queue's last free slot. No norm compares with a NaN, so
// once queued it would never be replaced (the queue would prune with its
// first rows only) and the union's norms would not ascend. The queue
// never takes it: the row must survive as a candidate, the union must
// hold no NaN norm, and the Runner must keep the reference Filter's
// survivors, with the vector bodies on and off (pass 2 scans the stored
// rows of d = 8, which takes the union's vector body where the CPU has
// it) and both must book the same tests.
func TestRunnerNaNUnionNorm(t *testing.T) {
	defer point.SetVectorBodies(point.VectorBodies())
	vecs := []bool{false}
	if point.HasAVX512BW() {
		vecs = append(vecs, true)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	team := pool.Lease(2)
	m := tight(5000, 8, 5)
	clear(m.Row(7))
	m.Row(7)[3] = math.NaN()
	want := Filter(m, l1s(m), 0, 2, true, nil)
	dts := stats.NewDTCounters(2)
	r := NewRunner()
	booked := map[bool]uint64{}
	for _, vec := range vecs {
		point.SetVectorBodies(vec)
		dts.Reset()
		surv, _, rows := survivors(r.Filter(m.View(), 0, 1, true, team, dts))
		if !slices.ContainsFunc(rows, func(row []float64) bool { return row != nil }) {
			t.Fatalf("vector bodies %v: no thread kept its rows: not the shape under test", vec)
		}
		if slices.ContainsFunc(r.ql1, math.IsNaN) {
			t.Fatalf("vector bodies %v: the union holds a NaN norm: %v", vec, r.ql1)
		}
		if !slices.Contains(surv, 7) {
			t.Fatalf("vector bodies %v: the NaN-norm row was pruned", vec)
		}
		if !slices.Equal(surv, want) {
			t.Fatalf("vector bodies %v: the Runner kept %d rows, the reference %d", vec, len(surv), len(want))
		}
		booked[vec] = dts.Sum()
	}
	if len(vecs) == 2 && booked[false] != booked[true] {
		t.Fatalf("%d dominance tests on the Go bodies, %d on the vector bodies", booked[false], booked[true])
	}
}

// TestRunnerStopRule holds the stop rule to the shapes it was chosen on,
// at T = 2 with the vector bodies on and off: every thread stops
// filtering on anticorrelated rows, at k = 1 and 4, and none does on
// independent or correlated ones (batch_corr's and serve_mix's data,
// independent at k = 4 the nearest to the threshold). Without the rule
// no thread stops on any of them. A thread that stops files at most the
// β + stopStretch rows it filtered and hands the rest of its range over
// as a row range: At returns those rows after its filed ones, in row
// order, with no row and no norm.
func TestRunnerStopRule(t *testing.T) {
	defer point.SetVectorBodies(point.VectorBodies())
	vecs := []bool{false}
	if point.HasAVX512BW() {
		vecs = append(vecs, true)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	team := pool.Lease(2)
	r := NewRunner()
	for _, c := range []struct {
		name string
		dist dataset.Distribution
		n, d int
		ops  []point.PrefOp
		ks   []int
		stop bool
	}{
		{"anti-32768x8", dataset.Anticorrelated, 32768, 8, nil, []int{1, 4}, true},
		{"anti-65536x8", dataset.Anticorrelated, 65536, 8, nil, []int{1, 4}, true},
		{"indep-50000x6", dataset.Independent, 50000, 6, nil, []int{1, 4}, false},
		{"indep-50000x6-3cols", dataset.Independent, 50000, 6, []point.PrefOp{0, point.PrefDrop, 0, point.PrefDrop, 0, point.PrefDrop}, []int{1, 4}, false},
		{"corr-1Mx8", dataset.Correlated, 1_000_000, 8, nil, []int{1, 4}, false},
		{"corr-1Mx8-4cols", dataset.Correlated, 1_000_000, 8, dropOps(8), []int{1}, false},
	} {
		m := dataset.Generate(c.dist, c.n, c.d, 1)
		var v point.View
		v.Reset(m.Flat(), c.n, c.d, c.ops)
		for _, vec := range vecs {
			point.SetVectorBodies(vec)
			for _, k := range c.ks {
				for _, stop := range []bool{false, true} {
					rs := r.Filter(v, 0, k, stop, team, nil)
					for tid, sg := range r.rows.segs[:2] {
						at := fmt.Sprintf("%s k=%d vector bodies %v stop rule %v: thread %d", c.name, k, vec, stop, tid)
						stopped := sg.hi > sg.lo
						if want := stop && c.stop; stopped != want {
							t.Errorf("%s stopped %v, want %v", at, stopped, want)
						}
						if !stopped {
							continue
						}
						if sg.n > DefaultBeta+stopStretch {
							t.Errorf("%s stopped and filed %d candidates, want at most β + stopStretch = %d", at, sg.n, DefaultBeta+stopStretch)
						}
						first := rs.first[tid]
						if last, _, _ := rs.At(first + sg.n - 1); last >= sg.lo {
							t.Errorf("%s filed row %d, inside its range from %d", at, last, sg.lo)
						}
						for j := sg.lo; j < sg.hi; j++ {
							i := first + sg.n + j - sg.lo
							if idx, l1, row := rs.At(i); idx != j || row != nil || l1 != 0 {
								t.Errorf("%s: list position %d is row %d with row %v and norm %v, want row %d with neither", at, i, idx, row, l1, j)
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestRunnerReuseAfterLargerRun reuses one Runner for a large run at
// T = 3 and d = 4, which keeps its rows, then for a run over fewer rows
// than threads at d = 8. The small run's pass 1 leaves a thread idle
// whose segment and queue still hold the large run's candidates and
// rows, so Filter must empty them first. The small run keeps both of
// its rows (no queue fills), and any rows it returns are its own.
func TestRunnerReuseAfterLargerRun(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	team := pool.Lease(3)
	r := NewRunner()
	big := dataset.Generate(dataset.Correlated, 60000, 4, 3)
	if _, _, rows := survivors(r.Filter(big.View(), 0, 1, true, team, nil)); !slices.ContainsFunc(rows, func(row []float64) bool { return row != nil }) {
		t.Fatal("the large correlated run kept no rows")
	}
	small := dataset.Generate(dataset.Independent, 2, 8, 4)
	surv, l1, rows := survivors(r.Filter(small.View(), 0, 1, true, team, nil))
	if !slices.Equal(surv, []int{0, 1}) {
		t.Fatalf("small run after a large one kept %v, want [0 1]", surv)
	}
	checkAt(t, "small run after a large one", small, surv, l1, rows)
}

// TestRunnerScratchSizedByCandidates holds the filter's scratch to the
// candidates, not the input: the first Filter of a fresh Runner over
// 200 000 × 8 correlated rows at T = 2 allocates, beyond its row store,
// under 4 bytes per input row (a row index and a norm for every row
// would be 16). Pass 1 keeps 7–11 % of these rows as candidates, so the
// row store, a loaded row of 64 bytes for each within storeShare, is
// itself 4.5–7 bytes a row here; it is sized by the candidates too, and
// is left out of the bound.
func TestRunnerScratchSizedByCandidates(t *testing.T) {
	const n = 200_000
	m := dataset.Generate(dataset.Correlated, n, 8, 7)
	pool := par.NewPool(2)
	defer pool.Close()
	team := pool.Lease(2)
	r := NewRunner()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Filter(m.View(), 0, 1, true, team, nil)
	runtime.ReadMemStats(&after)
	for tid, sg := range r.rows.segs[:2] {
		if sg.over {
			t.Fatalf("thread %d kept no rows on the correlated run", tid)
		}
	}
	var store uint64
	for _, s := range r.rows.segs {
		for _, b := range s.blocks {
			store += uint64(cap(b.rows)) * 8
		}
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc-store) / n; per >= 4 {
		t.Errorf("first Filter allocated %.2f bytes a row beside its %d-byte row store, want < 4", per, store)
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
		r.Filter(v, 0, 1, true, team, dts) // warm scratch
		allocs := testing.AllocsPerRun(20, func() {
			r.Filter(v, 0, 1, true, team, dts)
		})
		if allocs != 0 {
			t.Errorf("ops=%v: Runner.Filter allocates %.1f per call, want 0", ops, allocs)
		}
	}
}

// TestRunnerNeverPrunesSkyline re-checks the safety property on the
// Runner: no row of the k-skyband is ever pruned. The widths cover every
// kernel body the passes take — at d = 4 pass 1 runs the short-circuit
// body and pass 2 the branch-free one, at d = 8 both run the
// short-circuit body — and d = 5 and 6, which run the generic body.
func TestRunnerNeverPrunesSkyline(t *testing.T) {
	r := NewRunner()
	for _, threads := range []int{1, 3} {
		pool := par.NewPool(threads)
		team := pool.Lease(threads)
		for _, dist := range dataset.AllDistributions {
			for _, d := range []int{4, 5, 6, 8} {
				m := dataset.Generate(dist, 800, d, 31)
				for _, k := range []int{1, 3} {
					surv, _, _ := survivors(r.Filter(m.View(), 4, k, true, team, nil))
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
// all pruned, where pass 1's short-circuit kernel body pays): batch_corr's
// primary and secondary, the identity view and a drop-only view of four
// columns. Both are shapes pass 1's queue takes its vector body on, and
// the first keeps its rows at width 8, which pass 2's union scans with
// its own, so each has a "go" row (the vector bodies off, point.SetVectorBodies)
// and an "avx512" row (on, on a CPU with AVX512F+BW only). anti-d8 is
// batch_anti's (32 768 anticorrelated rows, few pruned, where the
// short-circuit body costs), at the default body and without the stop
// rule, which would give the filter up there (BenchmarkPrefilterPays
// prices it). SetBytes is the
// source size, so the figure reads as MB/s against what the host
// streams from memory.
//
// Two rows price the passes' floors on the identity case's rows. "read"
// touches every cache line of the 64 MB source once, split over the
// team as pass 1 splits it, and does nothing else: the host's streaming
// floor, which pass 1 cannot beat. "pass2-d8" runs pass 2 alone, again
// and again, on the segments a Filter leaves: every candidate is then a
// survivor, pass 2's costlier and commoner case (each tests every union
// point below its norm), and ns/cand is the cost of one, with the
// vector bodies off ("go": the binary search and
// point.CountDominatorsInFlatRun) and on ("avx512": the union's vector
// body).
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
	// bodies runs run as name/go and name/avx512, with the vector bodies
	// off and on.
	bodies := func(name string, run func(b *testing.B)) {
		for _, vec := range []bool{false, true} {
			body := "go"
			if vec {
				body = "avx512"
			}
			b.Run(name+"/"+body, func(b *testing.B) {
				if vec && !point.HasAVX512BW() {
					b.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU")
				}
				defer point.SetVectorBodies(point.VectorBodies())
				point.SetVectorBodies(vec)
				run(b)
			})
		}
	}
	for _, bc := range []struct {
		name   string
		m      point.Matrix
		ops    []point.PrefOp
		bodies bool
		stop   bool
	}{
		{"identity-d8", corr, nil, true, true},
		{"subspace-4of8", corr, half, true, true},
		{"anti-d8", anti, nil, false, false},
	} {
		run := func(b *testing.B) {
			n := bc.m.N()
			var v point.View
			v.Reset(bc.m.Flat(), n, d, bc.ops)
			r := NewRunner()
			r.Filter(v, 0, 1, bc.stop, team, nil) // warm scratch
			b.SetBytes(int64(n * d * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Filter(v, 0, 1, bc.stop, team, nil)
			}
		}
		if bc.bodies {
			bodies(bc.name, run)
		} else {
			b.Run(bc.name, run)
		}
	}
	b.Run("read", func(b *testing.B) {
		flat := corr.Flat()
		sums := make([]float64, threads*8) // a cache line a thread
		touch := func(tid, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += flat[i*d] // each 64-byte row starts in a line of its own
			}
			sums[tid*8] += s
		}
		b.SetBytes(int64(len(flat) * 8))
		for i := 0; i < b.N; i++ {
			team.ForRangesCancel(threads, corr.N(), nil, touch)
		}
	})
	bodies("pass2-d8", func(b *testing.B) {
		r := NewRunner()
		r.Filter(corr.View(), 0, 1, true, team, nil)
		cands := 0
		for _, sg := range r.rows.segs[:threads] {
			cands += sg.n
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			team.ForRangesCancel(threads, threads, nil, r.pass2)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cands), "ns/cand")
	})
}
