// Package planner is the adaptive query planner behind
// skybench.Algorithm Auto: given a one-time data profile of a
// collection (correlation class, estimated skyline cardinality) and the
// collection's rolling per-algorithm cost history, it picks the
// algorithm, the shard fan-out, and the α/β tuning for each query —
// with a bounded ε-greedy explore/exploit rule so cold collections
// converge to the measured best arm without hand-set knobs.
//
// The package deliberately knows nothing about skybench's public types
// (skybench imports it, not vice versa): algorithms are their CLI
// names, cost history arrives as flat CostRow values, and the caller
// translates the Decision back into a Query. DESIGN.md §14 documents
// the profile features, the scoring rule, and the soundness argument
// for overriding the configured shard count.
package planner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"skybench/internal/point"
)

// Algorithm names the planner can choose between. Only the two hot-path
// algorithms are candidate arms: they alone serve k-skyband queries,
// support cancellation mid-flight, and run allocation-free on a warm
// engine — the baselines exist for the paper's comparisons, not for
// serving.
const (
	AlgoHybrid = "hybrid"
	AlgoQFlow  = "qflow"
)

// Profile classification labels (matching the generator's distribution
// names so traces read naturally).
const (
	ClassCorrelated     = "correlated"
	ClassIndependent    = "independent"
	ClassAnticorrelated = "anticorrelated"
)

// profileSampleCap bounds the rows a profile samples: large enough for
// stable rank correlations (the standard error of Spearman's ρ is
// ~1/√s ≈ 0.044) and a two-point skyline-growth fit, small enough that
// profiling at attach time costs well under a millisecond of dominance
// tests (s² ≈ 262k pairs).
const profileSampleCap = 512

// Profile is the attach-time data profile of one collection: the
// planner's per-dataset features, computed once from a strided sample
// and reused by every Decide call.
type Profile struct {
	// N and D are the collection's size and dimensionality at profiling
	// time.
	N, D int
	// SampleN is the number of rows actually sampled.
	SampleN int
	// MeanRho is the mean pairwise Spearman rank correlation over the
	// sample — negative for anticorrelated data, near zero for
	// independent, strongly positive for correlated.
	MeanRho float64
	// Class is the correlation class MeanRho maps to (the generator's
	// distribution names).
	Class string
	// SkylineEst estimates the full set's skyline cardinality by fitting
	// a power law m(s) = c·s^γ to two prefix probes of the sample and
	// extrapolating to N. SkylineFrac is SkylineEst/N.
	SkylineEst  int
	SkylineFrac float64
}

// ProfileFlat profiles a row-major n×d dataset. It samples at most
// profileSampleCap rows with a fixed stride (deterministic — profiling
// twice yields the same profile), computes the mean pairwise Spearman
// correlation, and estimates skyline cardinality from a two-point
// prefix probe.
func ProfileFlat(vals []float64, n, d int) Profile {
	p := Profile{N: n, D: d, Class: ClassIndependent}
	if n <= 0 || d <= 0 {
		return p
	}
	s := n
	if s > profileSampleCap {
		s = profileSampleCap
	}
	stride := n / s
	if stride < 1 {
		stride = 1
	}
	sample := make([]float64, 0, s*d)
	for i := 0; i < s; i++ {
		r := i * stride
		sample = append(sample, vals[r*d:(r+1)*d]...)
	}
	p.SampleN = s

	p.MeanRho = meanSpearman(sample, s, d)
	switch {
	case p.MeanRho <= -0.08:
		p.Class = ClassAnticorrelated
	case p.MeanRho >= 0.25:
		p.Class = ClassCorrelated
	}

	// Two-point prefix probe: skyline of the first half vs the full
	// sample gives the local growth exponent γ; extrapolating m(s)·
	// (n/s)^γ to the full set (clamped to [m(s), n]) estimates the
	// skyline cardinality. γ near 1 (anticorrelated: the skyline grows
	// linearly) extrapolates to a dense skyline; γ near 0 (correlated:
	// the skyline saturates) keeps the estimate small.
	half := s / 2
	m2 := skylineCount(sample, s, d)
	gamma := 1.0
	if half >= 8 {
		m1 := skylineCount(sample, half, d)
		if m1 > 0 && m2 > m1 {
			gamma = math.Log(float64(m2)/float64(m1)) / math.Log(float64(s)/float64(half))
		} else if m2 <= m1 {
			gamma = 0
		}
		if gamma < 0 {
			gamma = 0
		}
		if gamma > 1 {
			gamma = 1
		}
	}
	est := float64(m2) * math.Pow(float64(n)/float64(s), gamma)
	if est < float64(m2) {
		est = float64(m2)
	}
	if est > float64(n) {
		est = float64(n)
	}
	p.SkylineEst = int(est)
	p.SkylineFrac = est / float64(n)
	return p
}

// skylineCount is the O(n²) oracle skyline size of the first n rows —
// only ever run on the bounded profile sample.
func skylineCount(vals []float64, n, d int) int {
	count := 0
	for i := 0; i < n; i++ {
		dominated := false
		for j := 0; j < n; j++ {
			if j != i && point.DominatesFlat(vals, j*d, i*d, d) {
				dominated = true
				break
			}
		}
		if !dominated {
			count++
		}
	}
	return count
}

// meanSpearman is the mean pairwise Spearman rank correlation over all
// dimension pairs of the s×d sample.
func meanSpearman(sample []float64, s, d int) float64 {
	if s < 3 || d < 2 {
		return 0
	}
	rk := make([][]float64, d)
	col := make([]float64, s)
	for j := 0; j < d; j++ {
		for i := 0; i < s; i++ {
			col[i] = sample[i*d+j]
		}
		rk[j] = rankVector(col)
	}
	var sum float64
	pairs := 0
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			sum += pearson(rk[a], rk[b])
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// rankVector assigns average ranks (ties share the mean of their rank
// range), the standard Spearman construction.
func rankVector(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// pearson is the Pearson correlation of two equal-length vectors.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// CostRow is one algorithm's rolling cost history as the planner
// consumes it: windowed latency and windowed mean dominance tests (the
// same decay rate, so the ns-per-test calibration below stays honest).
type CostRow struct {
	Algorithm string
	Count     uint64
	P50       time.Duration
	MeanDTs   float64 // windowed mean dominance tests per run
}

// Arm is one candidate plan: an algorithm at a fan-out.
type Arm struct {
	Algorithm string
	Shards    int
}

// Candidate is one scored arm, recorded into the decision trace.
type Candidate struct {
	Algorithm string
	Shards    int
	Predicted time.Duration
	// Source is "history" (the arm's own measured p50) or "model" (the
	// profile-driven cost model, before enough samples exist).
	Source  string
	Samples int
}

// Decision is the planner's answer for one query.
type Decision struct {
	Algorithm   string
	Shards      int
	Alpha       int
	Beta        int
	NoPrefilter bool
	// Explore marks an ε-greedy exploration of an under-sampled arm
	// rather than the lowest-predicted-cost choice.
	Explore    bool
	Reason     string
	Candidates []Candidate
}

// Config tunes the planner. The zero value selects the defaults.
type Config struct {
	// Epsilon is the exploration probability while under-sampled arms
	// remain (default 0.2).
	Epsilon float64
	// MinSamples is how many measured runs an arm needs before its own
	// history replaces the model score (default 3).
	MinSamples int
	// ExploreFactor and ExploreCeiling bound exploration to cheap
	// queries: an under-sampled arm is only explored when its predicted
	// cost is within ExploreFactor× the best arm's, or under
	// ExploreCeiling outright (defaults 8 and 100ms). This is what keeps
	// a cold collection from burning seconds measuring Q-Flow on an
	// anticorrelated 100k-point set whose model already prices it 100×
	// out.
	ExploreFactor  float64
	ExploreCeiling time.Duration
	// NsPerDT seeds the dominance-test → wall-clock conversion before
	// any history exists to calibrate it from (default 2ns).
	NsPerDT float64
	// Seed drives the ε-greedy coin deterministically.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.ExploreFactor <= 0 {
		c.ExploreFactor = 8
	}
	if c.ExploreCeiling <= 0 {
		c.ExploreCeiling = 100 * time.Millisecond
	}
	if c.NsPerDT <= 0 {
		c.NsPerDT = 2
	}
	return c
}

// armWindow is the number of recent latencies each arm retains; small,
// so the planner adapts quickly when a workload shifts.
const armWindow = 32

type armStats struct {
	window [armWindow]int64
	wn, wi int
	count  uint64
}

// p50 is the arm's windowed median latency.
func (a *armStats) p50() time.Duration {
	if a.wn == 0 {
		return 0
	}
	s := make([]int64, a.wn)
	copy(s, a.window[:a.wn])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return time.Duration(s[(a.wn*50+99)/100-1])
}

// DecisionCount is one aggregated decision tally for observability.
type DecisionCount struct {
	Algorithm string
	Shards    int
	Explore   bool
	Count     uint64
}

// Planner makes per-query plan decisions for one collection. Safe for
// concurrent use.
type Planner struct {
	mu        sync.Mutex
	cfg       Config
	prof      Profile
	rng       *rand.Rand
	arms      map[Arm]*armStats
	decisions map[DecisionCount]uint64 // key has Count zero
}

// New creates a planner over an initial profile.
func New(prof Profile, cfg Config) *Planner {
	cfg = cfg.withDefaults()
	return &Planner{
		cfg:       cfg,
		prof:      prof,
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		arms:      make(map[Arm]*armStats),
		decisions: make(map[DecisionCount]uint64),
	}
}

// Profile returns the planner's current data profile.
func (p *Planner) Profile() Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prof
}

// SetProfile replaces the data profile (a stream collection whose size
// drifted far from the profiled one re-profiles). Arm history is kept:
// it measures the engine, which did not change.
func (p *Planner) SetProfile(prof Profile) {
	p.mu.Lock()
	p.prof = prof
	p.mu.Unlock()
}

// Observe books one measured run of an arm.
func (p *Planner) Observe(algorithm string, shards int, elapsed time.Duration) {
	if shards < 1 {
		shards = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	arm := Arm{Algorithm: algorithm, Shards: shards}
	a := p.arms[arm]
	if a == nil {
		a = &armStats{}
		p.arms[arm] = a
	}
	a.count++
	a.window[a.wi] = int64(elapsed)
	a.wi = (a.wi + 1) % armWindow
	if a.wn < armWindow {
		a.wn++
	}
}

// DecisionCounts returns the per-(arm, explore) decision tallies,
// sorted for stable rendering.
func (p *Planner) DecisionCounts() []DecisionCount {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]DecisionCount, 0, len(p.decisions))
	for k, n := range p.decisions {
		k.Count = n
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		if a.Shards != b.Shards {
			return a.Shards < b.Shards
		}
		return !a.Explore && b.Explore
	})
	return out
}

// Decide picks the plan for one query: the arm (algorithm × fan-out)
// with the lowest predicted latency — each arm's own measured p50 once
// it has MinSamples runs, the profile-driven cost model before — with
// an ε-greedy, cost-bounded exploration of under-sampled arms.
// maxShards is the collection's configured (and clamped) partition
// count; the planner may choose 1 instead, never more.
func (p *Planner) Decide(rows []CostRow, maxShards int) Decision {
	if maxShards < 1 {
		maxShards = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	nsPerDT := p.calibrate(rows)
	arms := []Arm{{AlgoHybrid, 1}, {AlgoQFlow, 1}}
	if maxShards > 1 {
		arms = append(arms, Arm{AlgoHybrid, maxShards}, Arm{AlgoQFlow, maxShards})
	}

	cands := make([]Candidate, len(arms))
	bestIdx := 0
	for i, arm := range arms {
		c := Candidate{Algorithm: arm.Algorithm, Shards: arm.Shards, Source: "model"}
		if a := p.arms[arm]; a != nil {
			c.Samples = a.wn
			if a.wn >= p.cfg.MinSamples {
				c.Source = "history"
				c.Predicted = a.p50()
			}
		}
		if c.Source == "model" {
			c.Predicted = time.Duration(p.modelDTs(arm) * nsPerDT)
		}
		cands[i] = c
		if c.Predicted < cands[bestIdx].Predicted {
			bestIdx = i
		}
	}

	chosen := bestIdx
	explore := false
	reason := fmt.Sprintf("exploit: lowest predicted cost (%s)", cands[bestIdx].Source)
	if p.rng.Float64() < p.cfg.Epsilon {
		bound := time.Duration(p.cfg.ExploreFactor * float64(cands[bestIdx].Predicted))
		if bound < p.cfg.ExploreCeiling {
			bound = p.cfg.ExploreCeiling
		}
		cold := -1
		for i, c := range cands {
			if i == bestIdx || c.Samples >= p.cfg.MinSamples || c.Predicted > bound {
				continue
			}
			if cold < 0 || c.Predicted < cands[cold].Predicted {
				cold = i
			}
		}
		if cold >= 0 {
			chosen = cold
			explore = true
			reason = fmt.Sprintf("explore: %d/%d samples, predicted %v within budget %v",
				cands[cold].Samples, p.cfg.MinSamples, cands[cold].Predicted.Round(time.Microsecond), bound.Round(time.Microsecond))
		}
	}

	dec := Decision{
		Algorithm:  cands[chosen].Algorithm,
		Shards:     cands[chosen].Shards,
		Explore:    explore,
		Reason:     reason,
		Candidates: cands,
	}
	dec.Alpha = pickAlpha(dec.Algorithm, p.prof.N)
	if dec.Algorithm == AlgoHybrid {
		// On skyline-dense (anticorrelated) data the β-queue prefilter
		// prunes almost nothing yet pays ~β dominance tests per point;
		// turn it off there, keep the paper's β=8 otherwise.
		if p.prof.Class == ClassAnticorrelated {
			dec.NoPrefilter = true
		} else {
			dec.Beta = 8
		}
	}
	key := DecisionCount{Algorithm: dec.Algorithm, Shards: dec.Shards, Explore: explore}
	p.decisions[key]++
	return dec
}

// calibrate converts dominance tests to nanoseconds using the measured
// history: the smallest observed p50-latency / windowed-mean-DTs ratio
// across algorithms (the most efficient observed rate — pessimistic
// predictions block exploration, so lean cheap). Falls back to the
// configured default with no usable history.
func (p *Planner) calibrate(rows []CostRow) float64 {
	best := 0.0
	for _, r := range rows {
		if r.Count == 0 || r.MeanDTs <= 0 || r.P50 <= 0 {
			continue
		}
		ratio := float64(r.P50) / r.MeanDTs
		if best == 0 || ratio < best {
			best = ratio
		}
	}
	if best == 0 {
		return p.cfg.NsPerDT
	}
	// Clamp to a sane band: tiny windows on tiny inputs can produce
	// wild per-test rates dominated by fixed per-query overhead.
	if best < 0.25 {
		best = 0.25
	}
	if best > 50 {
		best = 50
	}
	return best
}

// modelDTs predicts an arm's dominance-test count from the profile:
// Hybrid's M(S) index compares each point against an O(√m)-ish slice of
// the m skyline points; Q-Flow's block flow is closer to n·m. The
// absolute coefficients are rough — they only need to order the arms
// and price exploration, and measured history replaces them after
// MinSamples runs. The sharded factors encode dominance-test counts
// measured at n=100k, d=8 over 1 → 2 → 4 shards: fan-out + merge never
// pays off for Hybrid at this engine's shared pool (independent 4.6M →
// 7.4M → 7.9M, anticorrelated 45M → 66M → 60M), and pays off for Q-Flow
// only when the skyline is dense — the per-shard quadratic term
// dominates and splits P ways (anticorrelated 1847M → 1202M → 747M,
// against correlated 1.4M → 2.6M → 3.1M).
func (p *Planner) modelDTs(arm Arm) float64 {
	n := float64(p.prof.N)
	m := float64(p.prof.SkylineEst)
	if n < 1 {
		n = 1
	}
	if m < 1 {
		m = 1
	}
	var base float64
	switch arm.Algorithm {
	case AlgoQFlow:
		base = n * m / 4
	default: // AlgoHybrid
		base = 0.5 * n * math.Sqrt(m)
	}
	if arm.Shards > 1 {
		switch arm.Algorithm {
		case AlgoQFlow:
			if p.prof.SkylineFrac >= 0.3 {
				f := 1.6 / float64(arm.Shards)
				if f < 0.35 {
					f = 0.35
				}
				base *= f
			} else {
				base *= 1.5
			}
		default:
			base *= 1.4
		}
	}
	return base
}

// pickAlpha picks the α-block size: the paper's defaults (2^10 Hybrid,
// 2^13 Q-Flow), halved while the input holds fewer than four blocks so
// the block pipeline actually pipelines on small collections. α never
// changes the result, only the schedule.
func pickAlpha(algorithm string, n int) int {
	alpha := 1 << 10
	if algorithm == AlgoQFlow {
		alpha = 1 << 13
	}
	for alpha > 256 && n < 4*alpha {
		alpha >>= 1
	}
	return alpha
}
