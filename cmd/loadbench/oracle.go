package main

import (
	"context"
	"sort"
	"sync"

	"skybench"
)

// digest identifies an answer whatever its order: the number of points
// and a wrapping sum of one hash per (point, dominator count).
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(key uint64, count int32) {
	z := key*0x9e3779b97f4a7c15 + uint64(uint32(count)) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	d.n++
	d.sum += z ^ (z >> 31)
}

// digestOf digests row indices with their dominator counts; counts is
// nil for a skyline, where every count is 0.
func digestOf(idx []int, counts []int32) digest {
	var d digest
	for i, ix := range idx {
		var c int32
		if counts != nil {
			c = counts[i]
		}
		d.add(uint64(ix), c)
	}
	return d
}

// prefixRows is how many leading rows the brute-force check covers.
func (cfg *config) prefixRows() int {
	if cfg.quick {
		return 512
	}
	return 4096
}

// dominates reports whether row a dominates row b under prefs (nil
// minimises every dimension).
func dominates(a, b []float64, prefs []skybench.Pref) bool {
	strict := false
	for j := range a {
		x, y := a[j], b[j]
		if prefs != nil {
			switch prefs[j] {
			case skybench.Ignore:
				continue
			case skybench.Max:
				x, y = -x, -y
			}
		}
		if x > y {
			return false
		}
		if x < y {
			strict = true
		}
	}
	return strict
}

// bruteBand is the benchmark's own O(n²) k-skyband: every row with
// fewer than k dominators, with its exact count. k ≤ 1 is the skyline.
func bruteBand(vals []float64, n, d int, prefs []skybench.Pref, k, workers int) digest {
	k = max(k, 1)
	parts := make([]digest, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				a := vals[i*d : (i+1)*d]
				c := 0
				for j := 0; j < n && c < k; j++ {
					if dominates(vals[j*d:(j+1)*d], a, prefs) {
						c++
					}
				}
				if c < k {
					parts[w].add(uint64(i), int32(c))
				}
			}
		}()
	}
	wg.Wait()
	var out digest
	for _, p := range parts {
		out.n += p.n
		out.sum += p.sum
	}
	return out
}

// topDigest digests the top cut the server applies: the top results
// with the fewest dominators, ties by ascending row index.
func topDigest(idx []int, counts []int32, top int) digest {
	pos := make([]int, len(idx))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool {
		ca, cb := counts[pos[a]], counts[pos[b]]
		if ca != cb {
			return ca < cb
		}
		return idx[pos[a]] < idx[pos[b]]
	})
	var d digest
	for _, p := range pos[:min(top, len(pos))] {
		d.add(uint64(idx[p]), counts[p])
	}
	return d
}

// reference answers the shape's query by a route the measured ops do
// not take: BSkyTree for a skyline, QFlow for a k-skyband.
func reference(eng *skybench.Engine, ds *skybench.Dataset, s shape) (skybench.Result, error) {
	q := skybench.Query{Algorithm: skybench.BSkyTree, Prefs: s.prefs}
	if s.k >= 2 {
		q = skybench.Query{Algorithm: skybench.QFlow, Prefs: s.prefs, SkybandK: s.k}
	}
	return eng.Run(context.Background(), ds, q)
}

// prefixOK holds the shape's own algorithm, on the leading rows,
// against the brute force.
func prefixOK(cfg *config, eng *skybench.Engine, vals []float64, n, d int, s shape) bool {
	m := min(n, cfg.prefixRows())
	prefix, err := skybench.DatasetFromFlat(vals[:m*d], m, d)
	if err != nil {
		return false
	}
	got, err := eng.Run(context.Background(), prefix, s.query())
	return err == nil && digestOf(got.Indices, got.Counts) == bruteBand(vals, m, d, s.prefs, s.k, cfg.nproc)
}

// expect computes the answer one query class must give: the reference
// over the full data, cut to the top rows when the shape asks. ok is
// false when the prefix check fails; every op of the class then counts
// as failed.
func expect(cfg *config, eng *skybench.Engine, vals []float64, n, d int, s shape) (want digest, ok bool) {
	ds, err := skybench.DatasetFromFlat(vals, n, d)
	if err != nil {
		return digest{}, false
	}
	res, err := reference(eng, ds, s)
	if err != nil {
		return digest{}, false
	}
	want = digestOf(res.Indices, res.Counts)
	if s.top > 0 && res.Counts != nil {
		want = topDigest(res.Indices, res.Counts, s.top)
	}
	return want, prefixOK(cfg, eng, vals, n, d, s)
}
