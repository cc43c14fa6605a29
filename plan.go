package skybench

import (
	"context"
	"hash/fnv"
	"time"

	"skybench/internal/planner"
)

// plannerSeed derives a deterministic per-collection seed for the
// planner's ε-greedy coin, so planning decisions replay identically for
// a given collection name and query order.
func plannerSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// plannerFor returns the collection's planner, creating it (profiling
// the snapshot) on first use, and re-profiling when the collection's
// size drifted ~4× from the profiled one (only a stream-backed
// collection's can) — skyline cardinality extrapolates on n, so a
// profile taken at 1k rows misprices the set at 100k.
func (c *Collection) plannerFor(snap *colSnapshot) *planner.Planner {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.plan == nil {
		prof := planner.ProfileFlat(snap.ds.vals, snap.ds.n, snap.ds.d)
		c.plan = planner.New(prof, planner.Config{Seed: plannerSeed(c.name)})
		return c.plan
	}
	prof := c.plan.Profile()
	n := snap.ds.n
	if prof.N > 0 && (n >= prof.N*4 || n*4 <= prof.N) {
		c.plan.SetProfile(planner.ProfileFlat(snap.ds.vals, snap.ds.n, snap.ds.d))
	}
	return c.plan
}

// decide resolves an Algorithm: Auto query in place: the planner picks
// the concrete algorithm, the fan-out (possibly overriding the
// configured shard count down to 1), and the α/β tuning — explicit
// caller-set tuning fields always win. The planner profiles and
// partitions rows, so a stream backing materializes them here; decide
// returns that snapshot for the answer to run over, with the fan-out to
// execute at and the decision trace. A membership whose rows live
// elsewhere (a remote backing) has nothing here to profile: the query
// goes out as Auto and each worker plans its own shard.
func (c *Collection) decide(ctx context.Context, snap *colSnapshot, q *Query) (*colSnapshot, int, *PlannerTrace, error) {
	snap, err := c.back.rows(ctx, snap)
	if err != nil {
		return nil, 0, nil, err
	}
	if snap.ds == nil {
		return snap, 1, nil, nil
	}
	pl := c.plannerFor(snap)
	maxShards := 1
	// Progressive delivery needs an unsharded run, so the planner only
	// chooses between unsharded arms for it.
	if len(snap.parts) > 1 && q.Progressive == nil {
		maxShards = len(snap.parts)
	}
	dec := pl.Decide(c.costs.plannerRows(), maxShards)
	q.Algorithm = Hybrid
	if dec.Algorithm == planner.AlgoQFlow {
		q.Algorithm = QFlow
	}
	if q.Alpha <= 0 {
		q.Alpha = dec.Alpha
	}
	if q.Beta <= 0 && !q.Ablation.NoPrefilter {
		if dec.NoPrefilter {
			q.Ablation.NoPrefilter = true
		} else if dec.Beta > 0 {
			q.Beta = dec.Beta
		}
	}
	prof := pl.Profile()
	pt := &PlannerTrace{
		Class:       prof.Class,
		MeanRho:     prof.MeanRho,
		SkylineFrac: prof.SkylineFrac,
		SkylineEst:  prof.SkylineEst,
		SampleN:     prof.SampleN,
		Algorithm:   q.Algorithm.String(),
		Shards:      dec.Shards,
		Alpha:       q.Alpha,
		Beta:        q.Beta,
		NoPrefilter: q.Ablation.NoPrefilter,
		Explore:     dec.Explore,
		Reason:      dec.Reason,
	}
	if len(dec.Candidates) > 0 {
		pt.Candidates = make([]PlannerCandidate, len(dec.Candidates))
		for i, cand := range dec.Candidates {
			pt.Candidates[i] = PlannerCandidate{
				Algorithm: cand.Algorithm,
				Shards:    cand.Shards,
				Predicted: cand.Predicted,
				Source:    cand.Source,
				Samples:   cand.Samples,
			}
		}
	}
	return snap, dec.Shards, pt, nil
}

// observePlan books one executed Auto run's measured latency into the
// planner's arm history.
func (c *Collection) observePlan(pt *PlannerTrace, elapsed time.Duration) {
	c.planMu.Lock()
	pl := c.plan
	c.planMu.Unlock()
	if pl != nil {
		pl.Observe(pt.Algorithm, pt.Shards, elapsed)
	}
}
