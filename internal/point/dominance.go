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
