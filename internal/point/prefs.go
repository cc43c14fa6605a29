package point

import "fmt"

// Preference transform: the kernels in this package implement one
// convention only — every dimension minimized — because a single
// convention is what keeps the dominance tests branch-free. Richer
// queries (maximize a dimension, restrict the skyline to a subspace) are
// expressed by rewriting the input before a kernel sees it, so that the
// kernels never learn preferences exist: maximized columns are negated
// (min(-x) = max(x)) and ignored columns are dropped entirely, shrinking
// every subsequent dominance test. The rewrite has two realizations that
// produce the same values in the same order: a View (view.go) applies it
// row by row at load time — what Hybrid and Q-Flow read through — and
// StagePrefs writes a transformed copy, for callers that want a plain
// matrix (the baselines, the stream index, the cluster merge).

// PrefOp describes how the transform treats one source dimension.
type PrefOp int8

const (
	// PrefKeep copies the column unchanged (minimize).
	PrefKeep PrefOp = iota
	// PrefNegate copies the column negated (maximize).
	PrefNegate
	// PrefDrop omits the column (subspace skyline).
	PrefDrop
)

// EffectiveDims returns the number of dimensions a staged point has
// under ops: the count of non-Drop entries.
func EffectiveDims(ops []PrefOp) int {
	k := 0
	for _, op := range ops {
		if op != PrefDrop {
			k++
		}
	}
	return k
}

// IdentityOps reports whether ops is a no-op transform (every dimension
// kept as-is), in which case staging can be skipped and the source
// storage used directly.
func IdentityOps(ops []PrefOp) bool {
	for _, op := range ops {
		if op != PrefKeep {
			return false
		}
	}
	return true
}

// StagePrefs writes the transform of the n×d row-major matrix src into
// dst under ops (one op per source dimension) and returns the effective
// dimensionality. Row order is preserved, so indices into the staged
// matrix are indices into src. dst must have capacity for
// n*EffectiveDims(ops) values; dst and src must not overlap.
func StagePrefs(dst, src []float64, n, d int, ops []PrefOp) int {
	if len(ops) != d {
		panic(fmt.Sprintf("point: %d preference ops for %d dimensions", len(ops), d))
	}
	de := EffectiveDims(ops)
	if len(dst) < n*de {
		panic(fmt.Sprintf("point: staging buffer holds %d values, want %d", len(dst), n*de))
	}
	w := 0
	for i := 0; i < n; i++ {
		row := src[i*d : (i+1)*d]
		for j, op := range ops {
			switch op {
			case PrefKeep:
				dst[w] = row[j]
				w++
			case PrefNegate:
				dst[w] = -row[j]
				w++
			}
		}
	}
	return de
}
