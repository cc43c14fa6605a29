package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"skybench"
	"skybench/internal/faults"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// durWorkload replays a deterministic op script against any consumer:
// op i is a delete of a uniformly chosen live ID with probability
// delP (when any point is live), an insert of a fresh random point
// otherwise. The same (seed, d, nOps, delP) always yields the same
// script, so a crashed process's surviving prefix can be re-simulated
// exactly by anyone who knows how many ops survived.
type durWorkload struct {
	rng  *rand.Rand
	d    int
	delP float64
	live []ID
	vals map[ID][]float64
	next ID
}

// checkpointNow forces one checkpoint now: the full live set and band
// membership are serialized (atomically: temp file + rename), then the
// WAL segments it supersedes are dropped. A no-op for in-memory
// indexes.
func (x *SkylineIndex) checkpointNow() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return fmt.Errorf("%w: stream.SkylineIndex", skybench.ErrClosed)
	}
	if x.dur == nil {
		return nil
	}
	return x.checkpointLocked()
}

func newDurWorkload(seed int64, d int, delP float64) *durWorkload {
	return &durWorkload{
		rng:  rand.New(rand.NewSource(seed)),
		d:    d,
		delP: delP,
		vals: make(map[ID][]float64),
		next: 1,
	}
}

// step generates op i and applies it to the simulated state, returning
// either a point to insert (del == 0) or an ID to delete.
func (w *durWorkload) step() (p []float64, del ID) {
	if len(w.live) > 0 && w.rng.Float64() < w.delP {
		i := w.rng.Intn(len(w.live))
		id := w.live[i]
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		delete(w.vals, id)
		return nil, id
	}
	return w.insertStep(), 0
}

// insertStep generates an insert op unconditionally (the batch path
// needs rows, not deletes). Scripts that mix insertStep and step are
// deterministic per workload instance but not re-simulatable by a
// step-only replay; the crash tests use step exclusively.
func (w *durWorkload) insertStep() []float64 {
	p := make([]float64, w.d)
	for j := range p {
		p[j] = w.rng.Float64()
	}
	w.vals[w.next] = p
	w.live = append(w.live, w.next)
	w.next++
	return p
}

// apply runs one generated op against a real index, which must assign
// the same IDs the simulation predicted.
func (w *durWorkload) apply(t *testing.T, x *SkylineIndex) error {
	t.Helper()
	p, del := w.step()
	if del != 0 {
		if !x.Delete(del) {
			return fmt.Errorf("delete of live ID %d rejected: %v", del, x.Err())
		}
		return nil
	}
	id, err := x.Insert(p)
	if err != nil {
		return err
	}
	if want := w.next - 1; id != want {
		t.Fatalf("index assigned ID %d, workload predicted %d", id, want)
	}
	return nil
}

// state returns the simulated live set in a shape oracleCheck accepts.
func (w *durWorkload) state() (ids []ID, rows [][]float64) {
	ids = slices.Clone(w.live)
	slices.Sort(ids)
	rows = make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = w.vals[id]
	}
	return ids, rows
}

// checkRecovered asserts a recovered index is exactly the simulated
// state: same live membership and values, and a band that matches a
// fresh Engine.Run over the surviving rows.
func checkRecovered(t *testing.T, eng *skybench.Engine, x *SkylineIndex, prefs []skybench.Pref, w *durWorkload) {
	t.Helper()
	ids, rows := w.state()
	vals, gotIDs, _ := x.LiveSnapshot()
	if len(gotIDs) != len(ids) {
		t.Fatalf("recovered %d live points, want %d", len(gotIDs), len(ids))
	}
	got := make(map[uint64][]float64, len(gotIDs))
	for i, id := range gotIDs {
		got[id] = vals[i*x.D() : (i+1)*x.D()]
	}
	for i, id := range ids {
		gv, ok := got[uint64(id)]
		if !ok {
			t.Fatalf("recovered live set is missing ID %d", id)
		}
		if !slices.Equal(gv, rows[i]) {
			t.Fatalf("ID %d recovered as %v, want %v", id, gv, rows[i])
		}
	}
	if len(ids) == 0 {
		if skylineSize(x) != 0 {
			t.Fatalf("empty live set but SkylineSize %d", skylineSize(x))
		}
		return
	}
	oracleCheck(t, eng, x, prefs, ids, rows)
}

// TestDurableRoundTrip: a mixed workload against a durable index, a
// clean Close (final checkpoint), Recover — and the recovered index
// must be point-identical, keep the ID sequence, and accept new
// mutations that survive a second recovery.
func TestDurableRoundTrip(t *testing.T) {
	eng := skybench.NewEngine(2)
	defer eng.Close()
	for _, tc := range []struct {
		name  string
		prefs []skybench.Pref
		k     int
	}{
		{"skyline-min", nil, 0},
		{"skyband-prefs", []skybench.Pref{skybench.Min, skybench.Max, skybench.Ignore}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Prefs:    tc.prefs,
				SkybandK: tc.k,
				Durable:  &Durability{Dir: dir, segmentBytes: 1 << 10, CheckpointEvery: 23},
			}
			x, err := New(3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !x.Durable() {
				t.Fatal("index with Config.Durable reports Durable() == false")
			}
			w := newDurWorkload(7, 3, 0.3)
			for i := 0; i < 150; i++ {
				if err := w.apply(t, x); err != nil {
					t.Fatal(err)
				}
			}
			// Batch path too: one group commit for all three rows.
			batch := make([][]float64, 3)
			for i := range batch {
				batch[i] = w.insertStep()
			}
			if _, err := x.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			wantEpoch := x.LiveEpoch()
			x.Close()

			r, err := Recover(dir, Config{Prefs: tc.prefs, SkybandK: tc.k})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer r.Close()
			if got := r.LiveEpoch(); got != wantEpoch {
				t.Fatalf("recovered LiveEpoch %d, want %d", got, wantEpoch)
			}
			checkRecovered(t, eng, r, tc.prefs, w)
			if err := r.Err(); err != nil {
				t.Fatalf("recovered index unhealthy: %v", err)
			}
			// The recovered index keeps appending to the same history.
			for i := 0; i < 40; i++ {
				if err := w.apply(t, r); err != nil {
					t.Fatal(err)
				}
			}
			checkRecovered(t, eng, r, tc.prefs, w)
		})
	}
}

// TestRecoverWithoutClose simulates a hard crash — the index is simply
// abandoned with its WAL open, no final checkpoint — and recovery must
// rebuild the exact state from checkpoint + WAL tail.
func TestRecoverWithoutClose(t *testing.T) {
	eng := skybench.NewEngine(2)
	defer eng.Close()
	dir := t.TempDir()
	x, err := New(2, Config{Durable: &Durability{Dir: dir, segmentBytes: 512, CheckpointEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	w := newDurWorkload(11, 2, 0.25)
	for i := 0; i < 90; i++ {
		if err := w.apply(t, x); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the only durable state is meta + WAL (checkpoints were
	// disabled), exactly a crashed process's leavings.
	r, err := Recover(dir, Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer r.Close()
	checkRecovered(t, eng, r, nil, w)
}

// TestNewRefusesExistingState: New must never append a second life to
// a directory holding durable state.
// TestCheckpointSyncsDir: the meta file's rename and every checkpoint's
// are made durable with a directory fsync, under the default FsyncOS
// too, before anything they supersede is unlinked.
func TestCheckpointSyncsDir(t *testing.T) {
	x, err := New(2, Config{Durable: &Durability{Dir: t.TempDir(), CheckpointEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := x.dur.log.Stats().DirSyncs; got != 1 {
		t.Fatalf("after New: %d directory syncs, want 1 (meta.json)", got)
	}
	for i := uint64(2); i <= 3; i++ {
		if _, err := x.Insert([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
		if err := x.checkpointNow(); err != nil {
			t.Fatal(err)
		}
		if got := x.dur.log.Stats().DirSyncs; got != i {
			t.Fatalf("after checkpoint %d: %d directory syncs, want %d", i-1, got, i)
		}
	}
}

func TestNewRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	x, err := New(2, Config{Durable: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Insert([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	x.Close()
	if _, err := New(2, Config{Durable: &Durability{Dir: dir}}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("New over existing state = %v, want ErrBadQuery directing to Recover", err)
	}
}

// TestRecoverRejects: shape mismatches and absent state fail with the
// right sentinels instead of silently recovering the wrong thing.
func TestRecoverRejects(t *testing.T) {
	dir := t.TempDir()
	prefs := []skybench.Pref{skybench.Min, skybench.Max}
	x, err := New(2, Config{Prefs: prefs, SkybandK: 2, Durable: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Insert([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	x.Close()

	if _, err := Recover(t.TempDir(), Config{}); !errors.Is(err, skybench.ErrBadDataset) {
		t.Fatalf("Recover of empty dir = %v, want ErrBadDataset", err)
	}
	if _, err := Recover(dir, Config{SkybandK: 5}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("Recover with wrong k = %v, want ErrBadQuery", err)
	}
	if _, err := Recover(dir, Config{Prefs: []skybench.Pref{skybench.Min, skybench.Min}}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("Recover with wrong prefs = %v, want ErrBadQuery", err)
	}

	// Zero cfg adopts the recorded shape.
	r, err := Recover(dir, Config{})
	if err != nil {
		t.Fatalf("Recover with zero cfg: %v", err)
	}
	defer r.Close()
	if r.k != 2 || r.D() != 2 {
		t.Fatalf("recovered shape k=%d d=%d, want k=2 d=2", r.k, r.D())
	}
}

// segFrames parses one WAL segment file and returns every frame
// boundary offset, ascending, starting with 0 (parsing mirrors the
// wal frame format: u32 length, u32 CRC, payload; a zero length starts
// the zeroed reservation after the last frame).
func segFrames(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || off+8+n > len(data) {
			break
		}
		off += 8 + n
		offs = append(offs, int64(off))
	}
	return offs
}

// copyDir clones a durable directory so a cut can be applied without
// destroying the original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// lastSegment returns the path and first-LSN of the newest WAL segment
// in dir, plus the LSN of the newest checkpoint (0 when none).
func lastSegment(t *testing.T, dir string) (path string, first uint64, ckptLSN uint64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg"):
			segs = append(segs, e.Name())
		case strings.HasPrefix(e.Name(), ckptPrefix) && strings.HasSuffix(e.Name(), ckptSuffix):
			if lsn, ok := parseCkptName(e.Name()); ok && lsn > ckptLSN {
				ckptLSN = lsn
			}
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	slices.Sort(segs)
	name := segs[len(segs)-1]
	if _, err := fmt.Sscanf(name, "wal-%016x.seg", &first); err != nil {
		t.Fatalf("segment name %q: %v", name, err)
	}
	return filepath.Join(dir, name), first, ckptLSN
}

// TestRecoverEveryCutPoint is the crash-recovery property test: for
// preference sets × delete mixes × k, run a durable workload, then for
// EVERY record boundary of the WAL's final segment — and for torn
// offsets a few bytes past each boundary — truncate a copy of the
// directory there, Recover, and require the result to be exactly the
// surviving op prefix, verified against a fresh Engine.Run. LSN i is
// op i, so the surviving prefix of a cut at record boundary c is
// max(c, newest checkpoint LSN) — a crash can tear the log's tail, it
// cannot unwrite a checkpoint.
func TestRecoverEveryCutPoint(t *testing.T) {
	eng := skybench.NewEngine(2)
	defer eng.Close()
	const nOps = 120
	for _, tc := range []struct {
		name     string
		prefs    []skybench.Pref
		k        int
		delP     float64
		segBytes int64
		ckEvery  int
	}{
		// Small segments + frequent checkpoints: cuts land in a short
		// active segment behind a recent checkpoint.
		{"skyline-rotating", nil, 0, 0.3, 384, 37},
		// One big segment, no automatic checkpoints: every op of the run
		// is a cut point and recovery replays the whole surviving log.
		{"skyband-prefs-single-seg", []skybench.Pref{skybench.Max, skybench.Min, skybench.Min}, 3, 0.25, 1 << 20, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			x, err := New(3, Config{
				Prefs:    tc.prefs,
				SkybandK: tc.k,
				Durable:  &Durability{Dir: dir, segmentBytes: tc.segBytes, CheckpointEvery: tc.ckEvery},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Record the op script once; each cut re-simulates its prefix.
			full := newDurWorkload(42, 3, tc.delP)
			for i := 0; i < nOps; i++ {
				if err := full.apply(t, x); err != nil {
					t.Fatal(err)
				}
			}
			// Abandon without Close: crash state.
			segPath, segFirst, ckptLSN := lastSegment(t, dir)
			bounds := segFrames(t, segPath)
			for _, torn := range []int64{0, 3} {
				for _, cut := range bounds {
					cutAt := cut + torn
					name := fmt.Sprintf("cut=%d+%d", cut, torn)
					cp := copyDir(t, dir)
					cpSeg, _, _ := lastSegment(t, cp)
					if fi, err := os.Stat(cpSeg); err != nil || cutAt > fi.Size() {
						continue // torn offset past the file's end
					}
					if err := os.Truncate(cpSeg, cutAt); err != nil {
						t.Fatal(err)
					}
					r, err := Recover(cp, Config{Prefs: tc.prefs, SkybandK: tc.k})
					if err != nil {
						t.Fatalf("%s: Recover: %v", name, err)
					}
					// Surviving records: everything below the cut boundary (a
					// torn frame is truncated by Open), floored by the newest
					// checkpoint, which captured its prefix outside the WAL.
					frames := int64(0)
					for _, b := range bounds {
						if b <= cut && b > 0 {
							frames++
						}
					}
					prefix := uint64(segFirst) + uint64(frames)
					if ckptLSN > prefix {
						prefix = ckptLSN
					}
					if got := r.LiveEpoch(); got != prefix {
						t.Fatalf("%s: recovered LiveEpoch %d, want surviving prefix %d", name, got, prefix)
					}
					w := newDurWorkload(42, 3, tc.delP)
					for i := uint64(0); i < prefix; i++ {
						w.step()
					}
					checkRecovered(t, eng, r, tc.prefs, w)
					r.Close()
				}
			}
		})
	}
}

// TestRecoverCorruptMidLog: damage in a non-final segment is not a
// tear (a crash only ever tears the log's very tail) — it must fail
// loudly with ErrCorruptWAL, never silently skip records.
func TestRecoverCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	x, err := New(2, Config{Durable: &Durability{Dir: dir, segmentBytes: 128, CheckpointEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := x.Insert([]float64{float64(i), float64(40 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	x.dur.log.Close() // release the file; skip the final checkpoint

	// Find the first (non-final) segment and flip a payload byte in its
	// first record.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	slices.Sort(segs)
	if len(segs) < 2 {
		t.Fatalf("need segment rotation, got %d segments", len(segs))
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[0]), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 9); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Recover(dir, Config{}); !errors.Is(err, skybench.ErrCorruptWAL) {
		t.Fatalf("Recover over mid-log damage = %v, want ErrCorruptWAL", err)
	}
}

// TestRecoverCorruptCheckpoint: a checkpoint that fails its CRC must
// fail recovery (the WAL below it was truncated — there is nothing to
// fall back to), and a stray .tmp checkpoint from a crashed writer is
// ignored.
func TestRecoverCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	x, err := New(2, Config{Durable: &Durability{Dir: dir, CheckpointEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := x.Insert([]float64{float64(i), float64(10 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	x.dur.log.Close()

	// A torn checkpoint-in-progress must not affect recovery.
	if err := os.WriteFile(filepath.Join(dir, ckptName(99)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, Config{})
	if err != nil {
		t.Fatalf("Recover with stray .tmp: %v", err)
	}
	if r.Len() != 10 {
		t.Fatalf("recovered %d points, want 10", r.Len())
	}
	r.Close()

	// Now damage the real checkpoint.
	cks, err := listCkpts(dir)
	if err != nil || len(cks) == 0 {
		t.Fatalf("checkpoints: %v %v", cks, err)
	}
	path := filepath.Join(dir, ckptName(cks[len(cks)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, Config{}); !errors.Is(err, skybench.ErrCorruptWAL) {
		t.Fatalf("Recover over damaged checkpoint = %v, want ErrCorruptWAL", err)
	}
}

// TestWALFaultRejectsMutation: an injected append failure must reject
// the mutation, leave the index unchanged and healthy for the next op,
// and be visible through Err until a durable op succeeds.
func TestWALFaultRejectsMutation(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(1)
	in.Arm(faults.Plan{Site: "wal.append", After: 1, Count: 2})
	x, err := New(2, Config{Durable: &Durability{Dir: dir, faults: in}})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	id1, err := x.Insert([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fault 1: insert rejected, no ID consumed, no state change.
	if _, err := x.Insert([]float64{2, 1}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("insert under append fault = %v, want ErrInjected", err)
	}
	if x.Len() != 1 {
		t.Fatalf("failed insert mutated the index: Len %d", x.Len())
	}
	if err := x.Err(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Err after failed insert = %v, want ErrInjected", err)
	}
	// Fault 2: delete rejected, point stays live.
	if x.Delete(id1) {
		t.Fatal("delete under append fault succeeded")
	}
	if !x.Contains(id1) {
		t.Fatal("failed delete removed the point")
	}
	// Faults exhausted: the next mutation succeeds and clears Err.
	id2, err := x.Insert([]float64{2, 1})
	if err != nil {
		t.Fatalf("insert after faults exhausted: %v", err)
	}
	if id2 != id1+1 {
		t.Fatalf("failed insert leaked an ID: got %d, want %d", id2, id1+1)
	}
	if err := x.Err(); err != nil {
		t.Fatalf("Err after recovery = %v, want nil", err)
	}
	if got := in.Hits("wal.append"); got < 3 {
		t.Fatalf("append site hit %d times, want ≥ 3", got)
	}
}

// TestWindowFailedEvictionKeepsRing: a full window's Push evicts first;
// when the durable eviction is rejected the point stays live in the
// index, so it must stay in the ring too — Push is an error, the window
// still agrees with its index, and the next Push evicts that same
// oldest point. A closed window refuses the same way.
func TestWindowFailedEvictionKeepsRing(t *testing.T) {
	in := faults.New(1)
	in.Arm(faults.Plan{Site: "wal.append", After: 2, Count: 1})
	w, err := NewWindow(2, 2, Config{Durable: &Durability{Dir: t.TempDir(), faults: in}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	first, err := w.Push([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push([]float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push([]float64{0, 0}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("push under a failed eviction = %v, want ErrInjected", err)
	}
	if w.Len() != w.x.Len() || w.Len() != 2 || !w.x.Contains(first) {
		t.Fatalf("after the failed push: window %d, index %d, oldest live %v", w.Len(), w.x.Len(), w.x.Contains(first))
	}
	if oldest := w.ring[w.head]; oldest != first {
		t.Fatalf("oldest %d, want %d", oldest, first)
	}
	if _, err := w.Push([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if w.x.Contains(first) || w.Len() != w.x.Len() || w.Len() != 2 {
		t.Fatalf("next push: oldest still live %v, window %d, index %d", w.x.Contains(first), w.Len(), w.x.Len())
	}

	w.Close()
	if _, err := w.Push([]float64{3, 3}); !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("push after Close = %v, want ErrClosed", err)
	}
	if w.Len() != 2 {
		t.Fatalf("push after Close changed the window: Len %d", w.Len())
	}
}

// TestRecoverTies: a checkpoint full of ties — exact duplicates, and
// rows one ulp apart whose computed norms can tie, among them a row of
// 0.9s and its neighbour, which do — recovers through the load pass to
// the brute-force band and counts, and books no rebuild and no
// resurrection.
func TestRecoverTies(t *testing.T) {
	grid := [...]float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}
	const d, n = 8, 400
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			nines := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
			up := slices.Clone(nines)
			up[0] = math.Nextafter(0.9, 1)
			rows := [][]float64{up, nines}
			rng := rand.New(rand.NewSource(int64(k)))
			for len(rows) < n {
				p := slices.Clone(rows[rng.Intn(len(rows))])
				switch rng.Intn(3) {
				case 0: // an exact duplicate
				case 1: // a neighbour one ulp up or down
					c := rng.Intn(d)
					p[c] = math.Nextafter(p[c], float64(rng.Intn(2)*2-1))
				default:
					for j := range p {
						p[j] = grid[rng.Intn(len(grid))]
					}
				}
				rows = append(rows, p)
			}
			dir := t.TempDir()
			x, err := New(d, Config{SkybandK: k, Durable: &Durability{Dir: dir, CheckpointEvery: -1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
			x.Close()

			r, err := Recover(dir, Config{})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer r.Close()
			vals, _, _ := r.LiveSnapshot()
			band := r.LiveBand()
			wantIdx, wantCnt := verify.BruteForceSkyband(point.FromFlat(vals, r.Len(), d), k)
			if k == 1 {
				wantCnt = nil // a skyline band carries no counts
			}
			if !verify.SameBand(band.Pos, band.Counts, wantIdx, wantCnt) {
				t.Fatalf("recovered band of %d rows differs from the brute force's %d", len(band.Pos), len(wantIdx))
			}
			if st := r.Stats(); st.Rebuilds != 0 || st.Resurrections != 0 || r.Len() != n {
				t.Fatalf("checkpoint load booked %+v with %d live, want no rebuild or resurrection and %d live", st, r.Len(), n)
			}
		})
	}
}

// TestAttachRecovered: the Store round-trip a restarting service makes
// — recover an index, attach it with CloseOnDrop, query it, drop it, and
// the drop must close the WAL (ownership was transferred).
func TestAttachRecovered(t *testing.T) {
	dir := t.TempDir()
	x, err := New(2, Config{Durable: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	w := newDurWorkload(9, 2, 0.2)
	for i := 0; i < 50; i++ {
		if err := w.apply(t, x); err != nil {
			t.Fatal(err)
		}
	}
	x.Close()

	st := skybench.NewStore(2)
	defer st.Close()
	r, err := Recover(dir, Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	col, err := st.AttachStream("hotels", r, skybench.CollectionOptions{CloseOnDrop: true})
	if err != nil {
		t.Fatalf("AttachStream: %v", err)
	}
	res, err := col.Run(context.Background(), skybench.Query{})
	if err != nil {
		t.Fatalf("query over recovered collection: %v", err)
	}
	if res.Len() == 0 || res.Len() != skylineSize(r) {
		t.Fatalf("recovered collection served %d band points, index has %d", res.Len(), skylineSize(r))
	}
	if err := st.Drop("hotels"); err != nil {
		t.Fatal(err)
	}
	// Ownership: Drop closed the recovered index and its WAL.
	if _, err := r.Insert([]float64{0.1, 0.2}); !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("insert after Drop = %v, want ErrClosed", err)
	}
}

// TestKillAndRecover is the end-to-end crash oracle: a child process
// streams a deterministic durable workload at full speed until it is
// SIGKILLed mid-stream; the parent recovers the directory and requires
// the result to be exactly some prefix of the op script — recomputed
// from scratch and cross-checked against a fresh Engine.Run.
func TestKillAndRecover(t *testing.T) {
	if os.Getenv("SKYBENCH_CRASH_DIR") != "" {
		t.Skip("crash child must only run TestCrashChild")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashChild$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), "SKYBENCH_CRASH_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child stream until real WAL state exists — its first
	// checkpoint, 512 records in — then kill it mid-flight: no warning,
	// no flush. Segment sizes say nothing here, since the log reserves
	// zeroed blocks ahead of its frames; a short grace period after the
	// checkpoint reliably lands the kill mid-stream (often
	// mid-checkpoint).
	deadline := time.Now().Add(20 * time.Second)
	for {
		if cks, err := listCkpts(dir); err == nil && len(cks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("crash child never produced WAL state")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to be killed; the error is the point

	r, err := Recover(dir, Config{})
	if err != nil {
		t.Fatalf("Recover after SIGKILL: %v", err)
	}
	defer r.Close()
	// LSN i is op i, so the recovered log length IS the surviving
	// prefix; re-simulate it and compare exactly.
	prefix := r.dur.log.NextLSN()
	if prefix == 0 {
		t.Fatal("no ops survived the kill")
	}
	w := newDurWorkload(crashSeed, crashDims, crashDelP)
	for i := uint64(0); i < prefix; i++ {
		w.step()
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	checkRecovered(t, eng, r, nil, w)
	t.Logf("recovered %d surviving ops, %d live points, band %d", prefix, r.Len(), skylineSize(r))
}

const (
	crashSeed = 1337
	crashDims = 3
	crashDelP = 0.3
)

// TestCrashChild is the victim process of TestKillAndRecover: it only
// runs when re-executed with SKYBENCH_CRASH_DIR set, and then streams
// durable mutations until it is killed.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("SKYBENCH_CRASH_DIR")
	if dir == "" {
		t.Skip("not a crash child")
	}
	x, err := New(crashDims, Config{Durable: &Durability{Dir: dir, segmentBytes: 32 << 10, CheckpointEvery: 512}})
	if err != nil {
		t.Fatal(err)
	}
	w := newDurWorkload(crashSeed, crashDims, crashDelP)
	for {
		if err := w.apply(t, x); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenLeavesNoDescriptors checks that closing a durable index
// releases its files and WAL mappings: the index is opened (New, then
// Recover on the same directory), takes inserts past two checkpoints
// and several segment rotations, and is closed, 20 times, after which
// the process holds no more file descriptors (/proc/self/fd) and maps
// no more WAL segments (/proc/self/maps) than before the loop. A first
// cycle before the counts lets the runtime open what it keeps open, and
// the collector is off during the loop, so a dropped *os.File's
// finalizer cannot close what Close left open. It reads /proc, so it
// runs on Linux only.
func TestReopenLeavesNoDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self")
	}
	dir := t.TempDir()
	cfg := Config{Durable: &Durability{Dir: dir, segmentBytes: 1 << 10, CheckpointEvery: 16}}
	rng := rand.New(rand.NewSource(3))
	cycle := func(i int) {
		t.Helper()
		open := func() (*SkylineIndex, error) { return Recover(dir, cfg) }
		if i == 0 {
			open = func() (*SkylineIndex, error) { return New(3, cfg) }
		}
		x, err := open()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		for j := 0; j < 40; j++ {
			if _, err := x.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				t.Fatalf("cycle %d: insert %d: %v", i, j, err)
			}
		}
		x.Close()
	}
	// held counts the process's open descriptors and its mappings of
	// WAL segment files.
	held := func() (fds, segs int) {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(maps), "\n") {
			if strings.Contains(line, "/wal-") && strings.Contains(line, ".seg") { // " (deleted)" may follow
				segs++
			}
		}
		return len(ents), segs
	}
	cycle(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds0, segs0 := held()
	for i := 1; i <= 20; i++ {
		cycle(i)
	}
	if fds, segs := held(); fds > fds0 || segs > segs0 {
		t.Fatalf("after 20 open-insert-close cycles the process holds %d descriptors and %d WAL segment mappings, %d and %d before", fds, segs, fds0, segs0)
	}
}
