package dataset

import (
	"fmt"
	"math/rand"

	"skybench/internal/point"
)

// RealDataset identifies one of the paper's three real datasets
// (Table I). The original files (NBA player statistics, house expenditure
// percentages, and a weather archive) are not redistributable here, so
// Load synthesizes deterministic stand-ins that preserve the properties
// the experiment exercises: the exact cardinality and dimensionality, a
// duplicate-heavy value domain (the distinct-value condition does not
// hold), and — for NBA and HOUSE — a skyline density close to the
// reported one (10.65 % against 10.40 %, 4.73 % against 4.51 %). WEATHER's
// stand-in is a third sparser than the archive (7.69 % against 11.20 % at
// full cardinality); TestPaperTable1RealData holds all three to these
// figures and DESIGN.md §5 lists the deviation.
type RealDataset int

const (
	// NBA: 17,264 player-season rows over 8 statistics; 10.40% skyline.
	NBA RealDataset = iota
	// House: 127,931 households over 6 expenditure shares; 4.51% skyline.
	House
	// Weather: 566,268 observations over 15 attributes; 11.20% skyline.
	Weather
)

// RealSpec records the published specification of a real dataset
// (Table I of the paper) so the harness can print paper-vs-measured rows.
type RealSpec struct {
	Name           string
	Cardinality    int
	Dimensionality int
	SkylineSize    int     // |SKY| reported in Table I
	SkylineFrac    float64 // fraction reported in Table I
}

// Spec returns the published specification for the dataset.
func (r RealDataset) Spec() RealSpec {
	switch r {
	case NBA:
		return RealSpec{Name: "NBA", Cardinality: 17264, Dimensionality: 8, SkylineSize: 1796, SkylineFrac: 0.1040}
	case House:
		return RealSpec{Name: "HOUSE", Cardinality: 127931, Dimensionality: 6, SkylineSize: 5774, SkylineFrac: 0.0451}
	case Weather:
		return RealSpec{Name: "WEATHER", Cardinality: 566268, Dimensionality: 15, SkylineSize: 63398, SkylineFrac: 0.1120}
	}
	panic(fmt.Sprintf("dataset: invalid real dataset %d", int(r)))
}

// String returns the dataset's name as printed in the paper.
func (r RealDataset) String() string { return r.Spec().Name }

// AllRealDatasets lists the stand-ins in Table I order.
var AllRealDatasets = []RealDataset{NBA, House, Weather}

// Load synthesizes the stand-in dataset at the given scale ∈ (0, 1]; scale
// 1 reproduces the published cardinality. Scaling down keeps dimensionality
// and value distribution fixed so per-point behaviour is unchanged while
// harness runs stay affordable on small machines.
func (r RealDataset) Load(scale float64) point.Matrix {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("dataset: scale %v out of range (0,1]", scale))
	}
	spec := r.Spec()
	n := int(float64(spec.Cardinality) * scale)
	if n < 1 {
		n = 1
	}
	switch r {
	case NBA:
		// Player-season stats behave like mildly correlated independent
		// draws with a coarse integer domain (games, points, rebounds...).
		// The 0.35 correlated blend calibrates the skyline fraction to
		// Table I's 10.40% at full cardinality (measured 10.65%).
		m := Generate(Independent, n, spec.Dimensionality, 4801)
		blend(m, Correlated, 0.35, 4802)
		Quantize(m, 64)
		return m
	case House:
		// Expenditure shares are lightly anticorrelated (money spent on
		// one category is unavailable for others) with many duplicates.
		// The 0.45 blend lands at 4.73% vs Table I's 4.51%.
		m := Generate(Independent, n, spec.Dimensionality, 4811)
		blend(m, Anticorrelated, 0.45, 4812)
		Quantize(m, 1024)
		return m
	case Weather:
		// Weather observations share a strong common factor (season /
		// air mass) with substantial per-attribute variation, recorded
		// at instrument precision (heavy duplication). A per-row common
		// level v blended with per-dimension uniforms at weight 0.55
		// measures 7.69% at full cardinality against Table I's 11.20%
		// (12.9% at quarter scale: the fraction falls with n). Left as
		// it is — retuning would change what cmd/datagen -real writes.
		m := commonFactor(n, spec.Dimensionality, 0.55, 4821)
		Quantize(m, 128)
		return m
	}
	panic("unreachable")
}

// commonFactor synthesizes rows as (1−w)·v + w·uᵢ where v is a per-row
// common level (bell-shaped) and uᵢ are per-dimension uniforms: a simple
// one-factor correlation model.
func commonFactor(n, d int, w float64, seed int64) point.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := point.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		v := (rng.Float64() + rng.Float64()) / 2
		for j := range row {
			row[j] = (1-w)*v + w*rng.Float64()
		}
	}
	return m
}

// blend mixes a second distribution into m: each row becomes
// (1−w)·row + w·aux-row. This shifts skyline density toward the target
// without changing cardinality or dimensionality.
func blend(m point.Matrix, dist Distribution, w float64, seed int64) {
	aux := Generate(dist, m.N(), m.D(), seed)
	a, b := m.Flat(), aux.Flat()
	for i := range a {
		a[i] = (1-w)*a[i] + w*b[i]
	}
}
