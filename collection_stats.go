package skybench

import (
	"fmt"
	"time"
)

// CollectionStats is a one-call snapshot of a collection's serving
// state — everything an info endpoint or metrics scrape needs, gathered
// together instead of poking N, D, Epoch, CacheStats, and the admission
// counters individually and racing mutations in between.
type CollectionStats struct {
	// Name is the name the collection is attached under.
	Name string
	// N is the current number of points; D their dimensionality.
	N, D int
	// Epoch is the membership epoch (always 0 for static collections).
	Epoch uint64
	// StreamBacked reports a live StreamSource backing.
	StreamBacked bool
	// Cache holds the result-cache counters.
	Cache CacheStats
	// Inflight is the number of admitted queries executing on the
	// collection right now.
	Inflight int64
	// BandAnswers counts the queries answered, over the collection's
	// life, by reading the band its stream source maintains (BandSource)
	// instead of running an engine over the live set. They are cache
	// misses, but not executed queries.
	BandAnswers uint64
	// Durability holds WAL and checkpoint statistics for collections
	// whose backing source persists itself (a durable
	// stream.SkylineIndex); nil otherwise.
	Durability *DurabilityStats
	// Placement describes the worker placement, health, and fan-out
	// counters of a cluster-backed collection; nil for local ones.
	Placement *PlacementStats
}

// DurabilityStats reports the persistence-layer counters of a durable
// collection backing: WAL fsync work, on-disk segment footprint, and
// checkpoint cost. stream.SkylineIndex implements the provider side;
// anything else backing a Collection can too.
type DurabilityStats struct {
	// WALFsyncs counts fsync calls the WAL issued; WALFsyncTime is the
	// total wall-clock time spent inside them.
	WALFsyncs    uint64        `json:"walFsyncs"`
	WALFsyncTime time.Duration `json:"walFsyncNs"`
	// WALSegments is the current number of on-disk WAL segments.
	WALSegments int `json:"walSegments"`
	// Checkpoints counts checkpoints taken; CheckpointTime is the total
	// time spent writing them and LastCheckpoint the duration of the
	// most recent one.
	Checkpoints    uint64        `json:"checkpoints"`
	CheckpointTime time.Duration `json:"checkpointNs"`
	LastCheckpoint time.Duration `json:"lastCheckpointNs,omitempty"`
}

// durabilityProvider is the optional StreamSource facet a durable
// backing implements to surface persistence counters (ok reports
// whether durability is configured at all).
type durabilityProvider interface {
	DurabilityStats() (DurabilityStats, bool)
}

// Stats returns a consistent snapshot of the collection's serving
// state. For a stream-backed collection whose source can report its
// live count directly (stream.SkylineIndex can) nothing is
// materialized; otherwise N comes from the current frozen snapshot,
// materializing it if the membership epoch advanced.
func (c *Collection) Stats() (CollectionStats, error) {
	st := CollectionStats{
		Name:        c.name,
		D:           c.back.dims(),
		Cache:       c.CacheStats(),
		Inflight:    c.inflight.Load(),
		BandAnswers: c.bandAnswers.Load(),
	}
	c.back.describe(&st)
	if c.dropped.Load() {
		return st, fmt.Errorf("%w: collection %q", ErrClosed, c.name)
	}
	st.Epoch = c.back.epoch()
	var err error
	st.N, err = c.back.size()
	return st, err
}
