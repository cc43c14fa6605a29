package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"skybench"
	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/serve"
	"skybench/serve/client"
)

// DistributeOptions configures Distribute.
type DistributeOptions struct {
	// Collection is the name the shards attach under on every worker.
	Collection string
	// Workers are the worker base URLs, in placement order.
	Workers []string
	// ScratchDir receives the per-shard CSVs ("" = a fresh temp dir).
	// The workers read the shard files from this directory, so it must
	// be reachable from every worker process — the static-attach
	// transport is a shared filesystem, same as single-node `-static`.
	ScratchDir string
	// Replace drops an existing collection of the same name on a worker
	// before re-attaching, instead of failing on the duplicate.
	Replace bool
}

// Distribute splits the CSV at path into one contiguous shard per
// worker (split's balance: sizes differ by at most one row), writes
// each shard to the scratch directory, and attaches it on its worker
// under opts.Collection. It returns the placement a Coordinator needs:
// worker specs with the global [Lo, Hi) each worker owns, plus the
// dataset shape.
//
// Distribution is idempotent with Replace set, and all-or-nothing in
// intent but not in effect: a mid-flight failure leaves earlier workers
// attached (re-run with Replace, or drop by hand).
func Distribute(ctx context.Context, path string, opts DistributeOptions) ([]WorkerSpec, int, int, error) {
	if opts.Collection == "" {
		return nil, 0, 0, fmt.Errorf("%w: distribute needs a collection name", skybench.ErrBadQuery)
	}
	if len(opts.Workers) == 0 {
		return nil, 0, 0, fmt.Errorf("%w: distribute needs at least one worker", skybench.ErrBadQuery)
	}
	m, err := dataset.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	n, d := m.N(), m.D()
	if n < len(opts.Workers) {
		return nil, 0, 0, fmt.Errorf("%w: %d rows cannot cover %d workers", skybench.ErrBadDataset, n, len(opts.Workers))
	}
	scratch := opts.ScratchDir
	if scratch == "" {
		scratch, err = os.MkdirTemp("", "skybench-cluster-")
		if err != nil {
			return nil, 0, 0, err
		}
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, 0, 0, err
	}

	specs := split(n, len(opts.Workers))
	flat := m.Flat()
	for i, r := range specs {
		specs[i].Addr = opts.Workers[i]
		sub := point.FromFlat(flat[r.Lo*d:r.Hi*d], r.Hi-r.Lo, d)
		shardPath := filepath.Join(scratch, fmt.Sprintf("%s-shard%d.csv", opts.Collection, i))
		if err := dataset.WriteFile(shardPath, sub); err != nil {
			return nil, 0, 0, err
		}
		if err := attachShard(ctx, specs[i].Addr, opts, shardPath); err != nil {
			return nil, 0, 0, fmt.Errorf("worker %s: %w", specs[i].Addr, err)
		}
	}
	return specs, n, d, nil
}

// split partitions [0, n) into p contiguous, non-empty, balanced row
// ranges, as worker specs without addresses. p is clamped to [1, n];
// n = 0 yields no ranges. The first n mod p ranges are one row longer,
// mirroring par.staticRange.
func split(n, p int) []WorkerSpec {
	if n <= 0 {
		return nil
	}
	p = min(max(p, 1), n)
	out := make([]WorkerSpec, p)
	size, rem := n/p, n%p
	lo := 0
	for i := range out {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = WorkerSpec{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// attachShard attaches one shard CSV on one worker, dropping a
// same-named collection first when Replace is set.
func attachShard(ctx context.Context, addr string, opts DistributeOptions, shardPath string) error {
	cli := client.New(addr)
	defer cli.Close()
	req := &serve.AttachRequest{Static: &serve.StaticSpec{Path: shardPath}}
	_, err := cli.Attach(ctx, opts.Collection, req)
	if err != nil && opts.Replace && errors.Is(err, skybench.ErrDuplicateCollection) {
		if err = cli.Drop(ctx, opts.Collection); err != nil {
			return err
		}
		_, err = cli.Attach(ctx, opts.Collection, req)
	}
	return err
}
