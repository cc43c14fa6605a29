package point

// Relation classifies the dominance relationship between two points under
// minimization preference (Definition 1/2 of the paper).
type Relation uint8

const (
	// Incomparable: neither point weakly dominates the other.
	Incomparable Relation = iota
	// LeftDominates: p ≺ q.
	LeftDominates
	// RightDominates: q ≺ p.
	RightDominates
	// Equal: p ≡ q (coincident); neither dominates.
	Equal
)

// String implements fmt.Stringer for debugging output.
func (r Relation) String() string {
	switch r {
	case Incomparable:
		return "incomparable"
	case LeftDominates:
		return "left≺right"
	case RightDominates:
		return "right≺left"
	case Equal:
		return "equal"
	}
	return "invalid"
}

// Dominates reports p ≺ q: p is no worse on every dimension and strictly
// better on at least one (Definition 2). It aborts as soon as p exceeds q
// on any dimension, which is the dominant case on random inputs.
func Dominates(p, q []float64) bool {
	strict := false
	for i, v := range p {
		w := q[i]
		if v > w {
			return false
		}
		if v < w {
			strict = true
		}
	}
	return strict
}

// Equals reports p ≡ q (coincident points).
func Equals(p, q []float64) bool {
	for i, v := range p {
		if v != q[i] {
			return false
		}
	}
	return true
}

// Compare performs one pass over both points and classifies the pair.
// It is used where both directions matter (PSkyline's window scan) so
// that a single scan replaces two Dominates calls.
func Compare(p, q []float64) Relation {
	pBetter, qBetter := false, false
	for i, v := range p {
		w := q[i]
		if v < w {
			pBetter = true
			if qBetter {
				return Incomparable
			}
		} else if v > w {
			qBetter = true
			if pBetter {
				return Incomparable
			}
		}
	}
	switch {
	case pBetter && !qBetter:
		return LeftDominates
	case qBetter && !pBetter:
		return RightDominates
	case !pBetter && !qBetter:
		return Equal
	}
	return Incomparable
}

// DominatesD is a dimension-specialized strict dominance kernel. The paper
// vectorizes dominance tests with AVX; in Go we obtain a comparable
// constant-factor win by specializing the loop for every dimensionality of
// the evaluation range (2 ≤ d ≤ 16) so the compiler can fully unroll it.
// Callers that know d at the call site should prefer this entry point.
func DominatesD(p, q []float64, d int) bool {
	switch d {
	case 2:
		return dom2(p, q)
	case 3:
		return dom3(p, q)
	case 4:
		return dom4(p, q)
	case 5:
		return dom5(p, q)
	case 6:
		return dom6(p, q)
	case 7:
		return dom7(p, q)
	case 8:
		return dom8(p, q)
	case 9:
		return dom9(p, q)
	case 10:
		return dom10(p, q)
	case 11:
		return dom11(p, q)
	case 12:
		return dom12(p, q)
	case 13:
		return dom13(p, q)
	case 14:
		return dom14(p, q)
	case 15:
		return dom15(p, q)
	case 16:
		return dom16(p, q)
	default:
		return Dominates(p, q)
	}
}

func dom2(p, q []float64) bool {
	_ = p[1]
	_ = q[1]
	if p[0] > q[0] || p[1] > q[1] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1]
}

func dom3(p, q []float64) bool {
	_ = p[2]
	_ = q[2]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2]
}

func dom4(p, q []float64) bool {
	_ = p[3]
	_ = q[3]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3]
}

func dom5(p, q []float64) bool {
	_ = p[4]
	_ = q[4]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4]
}

func dom6(p, q []float64) bool {
	_ = p[5]
	_ = q[5]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] || p[5] > q[5] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] || p[5] < q[5]
}

func dom7(p, q []float64) bool {
	_ = p[6]
	_ = q[6]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] ||
		p[4] > q[4] || p[5] > q[5] || p[6] > q[6] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] ||
		p[4] < q[4] || p[5] < q[5] || p[6] < q[6]
}

func dom8(p, q []float64) bool {
	_ = p[7]
	_ = q[7]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] ||
		p[4] > q[4] || p[5] > q[5] || p[6] > q[6] || p[7] > q[7] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] ||
		p[4] < q[4] || p[5] < q[5] || p[6] < q[6] || p[7] < q[7]
}

func dom9(p, q []float64) bool {
	_ = p[8]
	_ = q[8]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] ||
		p[4] > q[4] || p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] ||
		p[4] < q[4] || p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8]
}

func dom10(p, q []float64) bool {
	_ = p[9]
	_ = q[9]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9]
}

func dom11(p, q []float64) bool {
	_ = p[10]
	_ = q[10]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] ||
		p[10] > q[10] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9] ||
		p[10] < q[10]
}

func dom12(p, q []float64) bool {
	_ = p[11]
	_ = q[11]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] ||
		p[10] > q[10] || p[11] > q[11] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9] ||
		p[10] < q[10] || p[11] < q[11]
}

func dom13(p, q []float64) bool {
	_ = p[12]
	_ = q[12]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] ||
		p[10] > q[10] || p[11] > q[11] || p[12] > q[12] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9] ||
		p[10] < q[10] || p[11] < q[11] || p[12] < q[12]
}

func dom14(p, q []float64) bool {
	_ = p[13]
	_ = q[13]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] ||
		p[10] > q[10] || p[11] > q[11] || p[12] > q[12] || p[13] > q[13] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9] ||
		p[10] < q[10] || p[11] < q[11] || p[12] < q[12] || p[13] < q[13]
}

func dom15(p, q []float64) bool {
	_ = p[14]
	_ = q[14]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] ||
		p[10] > q[10] || p[11] > q[11] || p[12] > q[12] || p[13] > q[13] || p[14] > q[14] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9] ||
		p[10] < q[10] || p[11] < q[11] || p[12] < q[12] || p[13] < q[13] || p[14] < q[14]
}

func dom16(p, q []float64) bool {
	_ = p[15]
	_ = q[15]
	if p[0] > q[0] || p[1] > q[1] || p[2] > q[2] || p[3] > q[3] || p[4] > q[4] ||
		p[5] > q[5] || p[6] > q[6] || p[7] > q[7] || p[8] > q[8] || p[9] > q[9] ||
		p[10] > q[10] || p[11] > q[11] || p[12] > q[12] || p[13] > q[13] ||
		p[14] > q[14] || p[15] > q[15] {
		return false
	}
	return p[0] < q[0] || p[1] < q[1] || p[2] < q[2] || p[3] < q[3] || p[4] < q[4] ||
		p[5] < q[5] || p[6] < q[6] || p[7] < q[7] || p[8] < q[8] || p[9] < q[9] ||
		p[10] < q[10] || p[11] < q[11] || p[12] < q[12] || p[13] < q[13] ||
		p[14] < q[14] || p[15] < q[15]
}
