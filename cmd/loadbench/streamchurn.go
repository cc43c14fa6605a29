package main

import (
	"context"
	"fmt"
	"os"

	"skybench"
	"skybench/stream"
)

// streamChurn puts writes beside reads on one durable stream index
// behind a Store collection. The primary op is one batch of mutations
// applied singly, inserts of fresh rows interleaved with deletes of
// seeded-random live rows, so the live set keeps its size; it runs on
// one thread. The secondary op is the read after the write:
// ix.Snapshot() and then Collection.Run at the new epoch, which
// materialises the live set, validates it and runs the engine. The two
// answers of every read are cross-checked.
type streamChurn struct {
	cfg     *config
	sp      spec
	n0, d   int // live rows, dimensions
	pairs   int // (insert, delete) pairs per batch
	bulk    int // rows per InsertBatch call of the bulk load
	warmup  int
	durable bool // the traced run's WAL-overhead replay turns it off

	rows  [][]float64 // by ordinal
	trace []traceOp

	eng  *skybench.Engine
	st   *skybench.Store
	ix   *stream.SkylineIndex
	col  *skybench.Collection
	dir  string
	ids  []stream.ID // by ordinal
	pos  int         // next trace op
	base struct {    // counters when the script starts
		stats   stream.Stats
		dur     skybench.DurabilityStats
		written int64
	}
}

func newStreamChurn(cfg *config) *streamChurn {
	w := &streamChurn{cfg: cfg, n0: 50_000, d: 8, pairs: 1000, bulk: 1000, warmup: 4, durable: true}
	w.sp = spec{
		name:    "stream_churn",
		classes: [2]string{"batch of 2000 single mutations", "Snapshot + Collection.Run after the batch"},
		rounds:  170,
		callers: 1,
		opName:  "mutations",
	}
	if cfg.quick {
		w.n0, w.pairs, w.bulk, w.warmup, w.sp.rounds = 3000, 100, 500, 1, 4
	}
	w.sp.classes[primary] = fmt.Sprintf("batch of %d single mutations", 2*w.pairs)
	w.sp.opsPerRound, w.sp.samples, w.sp.spans = float64(2*w.pairs), 2, 2*w.pairs+5
	return w
}

func (w *streamChurn) spec() spec { return w.sp }

func (w *streamChurn) gen() {
	pairs := (w.warmup + w.cfg.rounds(w.sp)) * w.pairs
	flat := genRows(independent, w.n0+pairs, w.d, w.cfg.seed)
	w.rows = make([][]float64, w.n0+pairs)
	for i := range w.rows {
		w.rows[i] = flat[i*w.d : (i+1)*w.d]
	}
	w.trace = genTrace(w.n0, pairs, w.cfg.seed)
	w.ids = make([]stream.ID, len(w.rows))
}

func (w *streamChurn) setup(rec *recorder) error {
	var err error
	rec.h.timed(false, func() {
		w.eng = skybench.NewEngine(w.cfg.threads)
		w.st = skybench.NewStoreWithEngine(w.eng)
		cfg := stream.Config{Engine: w.eng}
		if w.durable {
			if w.dir, err = os.MkdirTemp("", "loadbench-wal-"); err != nil {
				return
			}
			cfg.Durable = &stream.Durability{Dir: w.dir, Fsync: stream.FsyncOS}
		}
		if w.ix, err = stream.New(w.d, cfg); err != nil {
			return
		}
		w.col, err = w.st.AttachStream("live", w.ix, skybench.CollectionOptions{})
	})
	if err != nil {
		return err
	}
	// The bulk load, ten InsertBatch calls to a timed piece.
	for lo := 0; lo < w.n0 && err == nil; lo += 10 * w.bulk {
		rec.h.timed(false, func() {
			for b := lo; b < min(lo+10*w.bulk, w.n0) && err == nil; b += w.bulk {
				var ids []stream.ID
				ids, err = w.ix.InsertBatch(w.rows[b:min(b+w.bulk, w.n0)])
				copy(w.ids[b:], ids)
			}
		})
	}
	if err != nil {
		return err
	}
	w.pos = 0
	for i := 0; i < w.warmup; i++ {
		w.round(-1, rec)
	}
	w.base.stats = w.ix.Stats()
	w.base.dur, _ = w.ix.DurabilityStats()
	w.base.written = writtenBytes()
	return nil
}

func (w *streamChurn) close() {
	if w.eng == nil {
		return
	}
	w.closeIndex()
	w.eng.Close()
	w.eng = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// closeIndex drops the collection and closes the index, which writes
// its final checkpoint.
func (w *streamChurn) closeIndex() {
	if w.ix != nil {
		w.st.Close()
		w.ix.Close()
		w.ix = nil
	}
}

func (w *streamChurn) round(r int, rec *recorder) {
	tr := rec.tr
	req := int32(r)
	ok := true
	p := rec.h.timed(false, func() {
		parent := tr.begin("stream.batch", -1, req)
		for _, op := range w.trace[w.pos : w.pos+2*w.pairs] {
			if op.del {
				sp := tr.begin("stream.delete", parent, req)
				deleted := w.ix.Delete(w.ids[op.ord])
				tr.end(sp, deleted)
				ok = ok && deleted
			} else {
				sp := tr.begin("stream.insert", parent, req)
				id, err := w.ix.Insert(w.rows[op.ord])
				tr.end(sp, err == nil)
				w.ids[op.ord] = id
				ok = ok && err == nil
			}
		}
		tr.end(parent, ok)
	})
	w.pos += 2 * w.pairs
	rec.add(0, sample{class: primary, round: int32(r), piece: int32(p), ns: rec.h.pieces[p].ns, ok: ok})

	var snap *stream.Snapshot
	var res *skybench.QueryResult
	var err error
	p = rec.h.timed(true, func() {
		parent := tr.begin("stream.read", -1, req)
		sp := tr.begin("stream.snapshot", parent, req)
		snap = w.ix.Snapshot()
		tr.end(sp, true)
		sp = tr.begin("collection.run", parent, req)
		res, err = w.col.Run(context.Background(), skybench.Query{})
		tr.end(sp, err == nil)
		tr.end(parent, err == nil)
	})
	if r < 0 {
		return
	}
	var fromIndex, fromStore digest
	for _, id := range snap.IDs() {
		fromIndex.add(uint64(id), 0)
	}
	if err == nil {
		for i := 0; i < res.Len(); i++ {
			id, _ := res.ID(i)
			fromStore.add(id, 0)
		}
	}
	rec.add(0, sample{
		class: secondary, round: int32(r), piece: int32(p), ns: rec.h.pieces[p].ns,
		ok: err == nil && fromIndex == fromStore, dig: fromIndex,
	})
}

// skylineOf is the oracle of an index's state: BSkyTree over its
// LiveSnapshot, digested by stream ID, plus the brute force against
// Hybrid on a prefix of the same rows.
func (w *streamChurn) skylineOf(ix *stream.SkylineIndex) (want digest, live int, ok bool) {
	vals, ids, _ := ix.LiveSnapshot()
	ds, err := skybench.DatasetFromFlat(vals, len(ids), w.d)
	if err != nil {
		return digest{}, 0, false
	}
	res, err := reference(w.eng, ds, shape{})
	if err != nil {
		return digest{}, 0, false
	}
	for _, i := range res.Indices {
		want.add(ids[i], 0)
	}
	return want, len(ids), prefixOK(w.cfg, w.eng, vals, len(ids), w.d, shape{})
}

func indexDigest(ix *stream.SkylineIndex) (d digest) {
	for _, id := range ix.Snapshot().IDs() {
		d.add(uint64(id), 0)
	}
	return d
}

func (w *streamChurn) verify(rec *recorder) {
	want, live, ok := w.skylineOf(w.ix)
	rec.check(ok, "brute force disagrees with Hybrid on a prefix of the live set")
	rec.check(indexDigest(w.ix) == want, "the index's final skyline differs from BSkyTree over its LiveSnapshot")
	rec.check(live == w.n0 && w.ix.Len() == w.n0, "live set has %d rows, want %d", live, w.n0)
	rec.check(w.ix.Err() == nil, "index durability error: %v", w.ix.Err())
}

func (w *streamChurn) layers(rec *recorder, m metrics) {
	tr := rec.tr
	written := writtenBytes() - w.base.written
	var insertUs, deleteUs, snapshotUs []float64
	for _, s := range tr.spans {
		if s.req < 0 {
			continue // warm-up
		}
		us := float64(s.end-s.start) / 1e3
		switch s.name {
		case "stream.insert":
			insertUs = append(insertUs, us)
		case "stream.delete":
			deleteUs = append(deleteUs, us)
		case "stream.snapshot":
			snapshotUs = append(snapshotUs, us)
		}
	}
	mutations := float64(len(insertUs) + len(deleteUs))
	m.set("stream.insert_us_p50", median(insertUs), "us")
	m.set("stream.insert_us_p99", percentile(insertUs, 99), "us")
	m.set("stream.delete_us_p50", median(deleteUs), "us")
	m.set("stream.delete_us_p99", percentile(deleteUs, 99), "us")
	m.set("stream.snapshot_us_p50", median(snapshotUs), "us")

	st := w.ix.Stats()
	m.set("stream.dt_per_mutation", float64(st.DominanceTests-w.base.stats.DominanceTests)/mutations, "count")
	m.set("stream.delta_per_mutation", float64(st.Entered-w.base.stats.Entered+st.Left-w.base.stats.Left)/mutations, "count")
	m.set("stream.rebuilds", float64(st.Rebuilds-w.base.stats.Rebuilds), "count")
	m.set("stream.resurrections", float64(st.Resurrections-w.base.stats.Resurrections), "count")
	m.set("stream.batch_ms_tail", rec.tail(primary, "stream.batch_ms_tail"), "ms")
	m.set("stream.query_ms_tail", rec.tail(secondary, "stream.query_ms_tail"), "ms")
	_, batchNorm := rec.latencies(primary)
	readRaw, _ := rec.latencies(secondary)

	dur, _ := w.ix.DurabilityStats()
	checkpoints := float64(dur.Checkpoints - w.base.dur.Checkpoints)
	m.set("wal.wchar_per_mutation", float64(written)/mutations, "B")
	m.set("wal.checkpoints", checkpoints, "count")
	m.set("wal.checkpoint_ms_mean", float64(dur.CheckpointTime-w.base.dur.CheckpointTime)/1e6/max(checkpoints, 1), "ms")
	m.set("wal.fsyncs", float64(dur.WALFsyncs-w.base.dur.WALFsyncs), "count")

	// Below the read: the materialisation alone, and the engine alone
	// over the same materialised rows.
	ctx := context.Background()
	var liveMs, engineMs []float64
	for rep := 0; rep < 5; rep++ {
		id := tr.begin("stream.live_snapshot", -1, 4_000_000)
		vals, ids, _ := w.ix.LiveSnapshot()
		tr.end(id, true)
		liveMs = append(liveMs, tr.dur(id)/1e6)
		ds, err := skybench.DatasetFromFlat(vals, len(ids), w.d)
		if err == nil {
			id = tr.begin("engine.run", -1, 4_000_000)
			_, err = w.eng.Run(ctx, ds, skybench.Query{})
			tr.end(id, err == nil)
			engineMs = append(engineMs, tr.dur(id)/1e6)
		}
		rec.check(err == nil, "engine over the live snapshot: %v", err)
	}
	m.set("stream.live_snapshot_ms_p50", median(liveMs), "ms")
	m.set("store.stream_miss_over_engine", median(readRaw)/median(engineMs), "ratio")

	w.recoveryPaths(rec, m)

	// The same script on an in-memory index: what the WAL costs a batch.
	rounds := len(batchNorm)
	w.close()
	w.durable = false
	mem := newRecorder(w.sp, rounds, w.cfg.nproc, nil, rec.out)
	if err := w.setup(mem); err != nil {
		rec.check(false, "in-memory replay: %v", err)
		return
	}
	script(w.cfg, w, mem, rounds)
	_, memNorm := mem.latencies(primary)
	m.set("wal.overhead_frac", median(batchNorm)/median(memNorm)-1, "ratio")
}

// recoveryPaths times stream.Recover twice and checks both restore the
// live count and skyline the index had: from a file copy of the
// directory taken before Close, which replays the WAL tail, and from
// the directory after Close, which loads the final checkpoint.
func (w *streamChurn) recoveryPaths(rec *recorder, m metrics) {
	want, live := indexDigest(w.ix), w.ix.Len()
	crashed, err := os.MkdirTemp("", "loadbench-wal-copy-")
	if err == nil {
		defer os.RemoveAll(crashed)
		err = os.CopyFS(crashed, os.DirFS(w.dir))
	}
	rec.check(err == nil, "copying the WAL directory: %v", err)
	if err != nil {
		return
	}
	w.closeIndex()
	for _, path := range []struct{ metric, span, dir string }{
		{"wal.replay_s", "stream.recover_replay", crashed},
		{"wal.recover_s", "stream.recover_checkpoint", w.dir},
	} {
		id := rec.tr.begin(path.span, -1, 5_000_000)
		ix, err := stream.Recover(path.dir, stream.Config{Engine: w.eng})
		rec.tr.end(id, err == nil)
		rec.check(err == nil, "%s: %v", path.span, err)
		if err != nil {
			continue
		}
		m.set(path.metric, rec.tr.dur(id)/1e9, "s")
		rec.check(ix.Len() == live && indexDigest(ix) == want, "%s restored %d rows, want %d, or another skyline", path.span, ix.Len(), live)
		ix.Close()
	}
}
