// Command skybench runs one skyline algorithm over one dataset and
// reports the result with timing and dominance-test statistics.
//
// Usage:
//
//	skybench -algo hybrid -dist anticorrelated -n 100000 -d 8 -t 4
//	skybench -algo bskytree -input points.csv -print
//	skybench -n 100000 -d 6 -max 2,5 -dims 0,2,3,5   # maximize & project
//	skybench -n 1000000 -d 10 -timeout 500ms         # deadline-bounded
//	skybench -n 100000 -d 8 -k 4 -top 10             # 4-skyband, 10 best
//
// It runs Engine.Run only. Sharding, caching and -algo auto belong to a
// Store collection: serve the file with skyserved -static and query it
// with skyctl.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

func main() {
	var (
		algoName  = flag.String("algo", "hybrid", "algorithm: "+algorithmList())
		distName  = flag.String("dist", "independent", "synthetic distribution: correlated|independent|anticorrelated")
		n         = flag.Int("n", 100000, "synthetic cardinality")
		d         = flag.Int("d", 8, "synthetic dimensionality")
		seed      = flag.Int64("seed", 42, "generator seed")
		input     = flag.String("input", "", "CSV dataset to load instead of generating")
		threads   = flag.Int("t", 0, "threads (0 = all CPUs)")
		alpha     = flag.Int("alpha", 0, "alpha block size override (0 = paper default)")
		pivotName = flag.String("pivot", "median", "hybrid pivot: median|balanced|manhattan|volume|random")
		maxList   = flag.String("max", "", "comma-separated dimension indices to maximize instead of minimize")
		dimsList  = flag.String("dims", "", "comma-separated dimension indices to keep (subspace skyline; others are ignored)")
		kband     = flag.Int("k", 1, "k-skyband parameter: report points with fewer than k dominators (1 = skyline; k >= 2 needs hybrid or qflow)")
		topW      = flag.Int("top", 0, "print the w band members with fewest dominators (requires -k >= 2)")
		timeout   = flag.Duration("timeout", 0, "cancel the query after this duration (0 = no deadline)")
		printSky  = flag.Bool("print", false, "print skyline points")
		check     = flag.Bool("check", false, "verify the result against a brute-force oracle (O(n²); small inputs only)")
	)
	flag.Parse()

	alg, err := skybench.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	if alg == skybench.Auto {
		fatal(fmt.Errorf("-algo auto is a Store collection's spelling, not an engine algorithm: serve the data with skyserved -static and run skyctl query -algo auto (engine algorithms: %s)", algorithmList()))
	}
	if *topW > 0 && *kband < 2 {
		fatal(fmt.Errorf("-top ranks band members by dominator count and needs -k >= 2 (got -k %d)", *kband))
	}
	pv, err := skybench.ParsePivot(*pivotName)
	if err != nil {
		fatal(err)
	}

	var m point.Matrix
	if *input != "" {
		m, err = dataset.ReadFile(*input)
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", *input, err))
		}
	} else {
		dist, err := dataset.ParseDistribution(*distName)
		if err != nil {
			fatal(err)
		}
		m = dataset.Generate(dist, *n, *d, *seed)
	}

	prefs, err := parsePrefs(*maxList, *dimsList, m.D())
	if err != nil {
		fatal(err)
	}

	ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	q := skybench.Query{
		Algorithm: alg,
		Prefs:     prefs,
		Alpha:     *alpha,
		Pivot:     pv,
		Seed:      *seed,
		SkybandK:  *kband,
	}

	eng := skybench.NewEngine(*threads)
	defer eng.Close()
	res, err := eng.Run(ctx, ds, q)
	if err != nil {
		fatal(err)
	}

	s := res.Stats
	label := "skyline    "
	if *kband > 1 {
		label = fmt.Sprintf("%d-skyband  ", *kband)
	}
	fmt.Printf("algorithm   : %s\n", alg)
	fmt.Printf("input       : %d points × %d dims\n", s.InputSize, m.D())
	if prefs != nil {
		fmt.Printf("preferences : %s\n", describePrefs(prefs))
	}
	pct := 0.0
	if s.InputSize > 0 { // an empty input has an empty skyline, not 0/0
		pct = 100 * float64(s.SkylineSize) / float64(s.InputSize)
	}
	fmt.Printf("%s : %d points (%.2f%%)\n", label, s.SkylineSize, pct)
	fmt.Printf("elapsed     : %v\n", s.Elapsed)
	fmt.Printf("dom. tests  : %d\n", s.DominanceTests)
	tm := s.Timings
	if tm.PhaseOne > 0 || tm.PhaseTwo > 0 {
		fmt.Printf("phases      : init=%v prefilter=%v pivot=%v phase1=%v phase2=%v compress=%v other=%v\n",
			tm.Init, tm.Prefilter, tm.Pivot, tm.PhaseOne, tm.PhaseTwo, tm.Compress, tm.Other)
	}
	if *check {
		staged := transformed(m, prefs)
		var ok bool
		var oracleSize int
		if *kband > 1 {
			wantIdx, wantCnt := verify.BruteForceSkyband(staged, *kband)
			ok = verify.SameBand(res.Indices, res.Counts, wantIdx, wantCnt)
			oracleSize = len(wantIdx)
		} else {
			want := verify.BruteForce(staged)
			ok = verify.SameSkyline(res.Indices, want)
			oracleSize = len(want)
		}
		if ok {
			fmt.Println("check       : OK (matches brute-force oracle)")
		} else {
			fmt.Printf("check       : FAILED (got %d points, oracle says %d)\n", len(res.Indices), oracleSize)
			os.Exit(1)
		}
	}
	if *topW > 0 {
		countOf := make(map[int]int32, len(res.Indices))
		for p, idx := range res.Indices {
			countOf[idx] = res.Counts[p]
		}
		for rank, i := range res.TopK(*topW) {
			fmt.Printf("top %-3d     : row %d (%d dominators) %v\n", rank+1, i, countOf[i], m.Row(i))
		}
	}
	if *printSky {
		for p, i := range res.Indices {
			if res.Counts != nil {
				fmt.Println(m.Row(i), "dominators:", res.Counts[p])
			} else {
				fmt.Println(m.Row(i))
			}
		}
	}
}

// parsePrefs combines -max and -dims into a per-dimension preference
// vector, or nil when both flags are empty (minimize everything).
func parsePrefs(maxList, dimsList string, d int) ([]skybench.Pref, error) {
	if maxList == "" && dimsList == "" {
		return nil, nil
	}
	prefs := make([]skybench.Pref, d)
	if dimsList != "" {
		keep, err := parseDims(dimsList, d)
		if err != nil {
			return nil, err
		}
		for i := range prefs {
			prefs[i] = skybench.Ignore
		}
		for _, i := range keep {
			prefs[i] = skybench.Min
		}
	}
	if maxList != "" {
		maxes, err := parseDims(maxList, d)
		if err != nil {
			return nil, err
		}
		for _, i := range maxes {
			if prefs[i] == skybench.Ignore {
				return nil, fmt.Errorf("dimension %d is both maximized (-max) and dropped (-dims)", i)
			}
			prefs[i] = skybench.Max
		}
	}
	return prefs, nil
}

// parseDims parses a comma-separated list of dimension indices in [0, d).
func parseDims(list string, d int) ([]int, error) {
	parts := strings.Split(list, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimension index %q: %w", p, err)
		}
		if v < 0 || v >= d {
			return nil, fmt.Errorf("dimension index %d out of range [0, %d)", v, d)
		}
		out = append(out, v)
	}
	return out, nil
}

func describePrefs(prefs []skybench.Pref) string {
	parts := make([]string, len(prefs))
	for i, p := range prefs {
		parts[i] = fmt.Sprintf("%d:%s", i, p)
	}
	return strings.Join(parts, " ")
}

// transformed applies the preference rewrite to m so the brute-force
// oracle sees exactly what the engine computed over.
func transformed(m point.Matrix, prefs []skybench.Pref) point.Matrix {
	if prefs == nil {
		return m
	}
	ops := make([]point.PrefOp, len(prefs))
	for i, p := range prefs {
		switch p {
		case skybench.Min:
			ops[i] = point.PrefKeep
		case skybench.Max:
			ops[i] = point.PrefNegate
		case skybench.Ignore:
			ops[i] = point.PrefDrop
		default:
			// parsePrefs only emits the three values above; a new Pref
			// must be wired here or the oracle would silently minimize.
			panic(fmt.Sprintf("unhandled preference %v", p))
		}
	}
	de := point.EffectiveDims(ops)
	dst := make([]float64, m.N()*de)
	point.StagePrefs(dst, m.Flat(), m.N(), m.D(), ops)
	return point.FromFlat(dst, m.N(), de)
}

// algorithmList names the engine's algorithms for -algo.
func algorithmList() string {
	names := make([]string, len(skybench.Algorithms))
	for i, a := range skybench.Algorithms {
		names[i] = a.String()
	}
	return strings.Join(names, "|")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skybench:", err)
	os.Exit(1)
}
