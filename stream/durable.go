// Durability for SkylineIndex: a write-ahead log plus checkpointed
// snapshots, so a stream collection survives process crashes.
//
// Every mutation is appended to a segmented, CRC-framed WAL before it
// is applied in memory (write-ahead ordering: a crash can lose an
// un-acknowledged mutation, never acknowledge a lost one).
// InsertBatch appends its records as one group commit — under
// FsyncAlways a batch of N inserts costs a single fsync. Periodically
// (Durability.CheckpointEvery applied records, and on Close) the index
// serializes its full live set, band membership, and epoch counters
// into a checkpoint file, then drops the WAL segments the checkpoint
// supersedes, bounding both recovery time and disk use.
//
// Recover(dir, cfg) restores: it validates the directory's meta file
// against cfg, loads the newest checkpoint (verifying its whole-file
// CRC and that the restored band is point- and count-identical to the
// one the checkpoint recorded), replays the WAL tail, truncates a torn
// final record (a crash mid-append legitimately tears the last frame),
// and reopens the WAL for appends. Damage anywhere before the final
// frame — or a checkpoint that fails verification — is unrecoverable
// data loss and surfaces as skybench.ErrCorruptWAL rather than being
// silently skipped.
//
// A durable index stores original (un-staged) coordinates in both WAL
// and checkpoints, so recovery re-stages under the index's preferences
// and numeric behavior cannot drift between a fresh index and a
// recovered one. Window ring positions are not durable — durability
// covers the point set, not the eviction order of a Window wrapper.
package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"skybench"
	"skybench/internal/faults"
	"skybench/internal/wal"
)

// Fsync selects when the durable index fsyncs its WAL.
type Fsync int

const (
	// FsyncOS (the default) makes stores into a shared mapping and lets
	// the kernel flush: acknowledged mutations survive a process crash
	// but not a power failure. This is the policy that keeps durable
	// throughput within a small factor of in-memory throughput.
	FsyncOS Fsync = iota
	// FsyncAlways fsyncs every append (once per InsertBatch — group
	// commit): acknowledged mutations survive power failure, at the cost
	// of one disk flush per operation.
	FsyncAlways
	// FsyncInterval fsyncs from a background loop every 50 ms:
	// bounded loss under power failure, near-FsyncOS throughput.
	FsyncInterval
)

// Durability configures crash safety for a SkylineIndex (Config.Durable).
type Durability struct {
	// Dir is the directory holding the WAL segments, checkpoints, and
	// meta file. Required. One directory per index.
	Dir string
	// Fsync selects the WAL fsync policy.
	Fsync Fsync
	// CheckpointEvery checkpoints after that many applied records
	// (default 8192; negative disables automatic checkpoints — Close
	// still writes one).
	CheckpointEvery int

	// segmentBytes overrides the WAL segment rotation size (default
	// 4 MiB) in package-internal tests that need many segments.
	segmentBytes int64
	// faults arms the WAL's injection sites in package-internal tests.
	faults *faults.Injector
}

const (
	defaultCheckpointEvery = 8192

	metaName   = "meta.json"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"

	ckptMagic   = 0x53424350 // "SBCP" little-endian
	ckptVersion = 1

	recInsert byte = 'i'
	recDelete byte = 'd'
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// durableState is the WAL-side state of a durable SkylineIndex,
// guarded by the index lock.
type durableState struct {
	dir     string
	log     *wal.Log
	every   int // checkpoint cadence in applied records (≤ 0 = manual only)
	since   int // records applied since the last checkpoint
	lastErr error
	buf     []byte   // single-record encode scratch
	recs    [][]byte // batch encode scratch

	// Checkpoint cost counters, reported through DurabilityStats.
	ckpts      uint64 // completed checkpoints
	ckptNs     int64  // total time spent writing them
	lastCkptNs int64  // duration of the most recent one
}

func (dcfg *Durability) walOptions() wal.Options {
	opts := wal.Options{SegmentBytes: dcfg.segmentBytes, Faults: dcfg.faults}
	switch dcfg.Fsync {
	case FsyncAlways:
		opts.Sync = wal.SyncAlways
	case FsyncInterval:
		opts.Sync = wal.SyncInterval
	default:
		opts.Sync = wal.SyncOS
	}
	return opts
}

func (dcfg *Durability) cadence() int {
	switch {
	case dcfg.CheckpointEvery < 0:
		return 0
	case dcfg.CheckpointEvery == 0:
		return defaultCheckpointEvery
	default:
		return dcfg.CheckpointEvery
	}
}

// wrapWal maps WAL-layer errors onto the public sentinels.
func wrapWal(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, wal.ErrCorrupt) {
		return fmt.Errorf("%w: %w", skybench.ErrCorruptWAL, err)
	}
	return err
}

// metaFile pins the immutable identity of a durable index so Recover
// can refuse a directory whose contents answer a different question
// than the caller is asking.
type metaFile struct {
	Version int   `json:"version"`
	D       int   `json:"d"`
	K       int   `json:"k"`
	Prefs   []int `json:"prefs,omitempty"`
}

func writeMeta(dir string, m metaFile) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, metaName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, metaName))
}

func readMeta(dir string) (metaFile, error) {
	var m metaFile
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%w: unreadable meta file: %v", skybench.ErrCorruptWAL, err)
	}
	if m.Version != 1 || m.D < 1 || m.K < 1 {
		return m, fmt.Errorf("%w: implausible meta file %+v", skybench.ErrCorruptWAL, m)
	}
	return m, nil
}

// initDurable sets up durability for a freshly created (empty) index.
// It refuses a directory that already holds durable state — silently
// appending a second life onto an existing log would interleave two
// histories; Recover is the only door back into existing state.
func (x *SkylineIndex) initDurable(dcfg Durability) error {
	if dcfg.Dir == "" {
		return fmt.Errorf("%w: Durability.Dir is required", skybench.ErrBadQuery)
	}
	if _, err := os.Stat(filepath.Join(dcfg.Dir, metaName)); err == nil {
		return fmt.Errorf("%w: %q already holds durable stream state; use stream.Recover", skybench.ErrBadQuery, dcfg.Dir)
	}
	log, err := wal.Open(dcfg.Dir, dcfg.walOptions())
	if err != nil {
		return wrapWal(err)
	}
	if log.NextLSN() > 0 {
		log.Close()
		return fmt.Errorf("%w: %q holds WAL records but no meta file", skybench.ErrCorruptWAL, dcfg.Dir)
	}
	m := metaFile{Version: 1, D: x.d, K: x.k}
	for _, op := range x.prefInts() {
		m.Prefs = append(m.Prefs, op)
	}
	if err := writeMeta(dcfg.Dir, m); err != nil {
		log.Close()
		return err
	}
	// Recover finds the directory's state through meta.json alone.
	if err := log.SyncDir(); err != nil {
		log.Close()
		return err
	}
	x.dur = &durableState{dir: dcfg.Dir, log: log, every: dcfg.cadence()}
	return nil
}

// prefInts returns the index's configured preferences as ints for the
// meta file, canonicalized: nil when every dimension is plain Min, so
// an explicit all-Min vector and an empty one record identically.
func (x *SkylineIndex) prefInts() []int {
	allMin := true
	for _, p := range x.prefs {
		if p != skybench.Min {
			allMin = false
		}
	}
	if allMin {
		return nil
	}
	out := make([]int, len(x.prefs))
	for i, p := range x.prefs {
		out[i] = int(p)
	}
	return out
}

// --- WAL record encoding -------------------------------------------------

// A record is: one op byte, a uvarint ID, and (inserts only) d
// little-endian float64 original coordinates.

func appendInsertRec(buf []byte, id ID, p []float64) []byte {
	buf = append(buf, recInsert)
	buf = binary.AppendUvarint(buf, uint64(id))
	for _, v := range p {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendDeleteRec(buf []byte, id ID) []byte {
	buf = append(buf, recDelete)
	return binary.AppendUvarint(buf, uint64(id))
}

func decodeRec(payload []byte, d int) (op byte, id ID, vals []float64, err error) {
	if len(payload) < 2 {
		return 0, 0, nil, fmt.Errorf("record of %d bytes", len(payload))
	}
	op = payload[0]
	raw, n := binary.Uvarint(payload[1:])
	if n <= 0 || raw == 0 {
		return 0, 0, nil, fmt.Errorf("bad record ID")
	}
	id = ID(raw)
	rest := payload[1+n:]
	switch op {
	case recDelete:
		if len(rest) != 0 {
			return 0, 0, nil, fmt.Errorf("delete record with %d trailing bytes", len(rest))
		}
	case recInsert:
		if len(rest) != d*8 {
			return 0, 0, nil, fmt.Errorf("insert record payload of %d bytes, want %d", len(rest), d*8)
		}
		vals = make([]float64, d)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	default:
		return 0, 0, nil, fmt.Errorf("unknown record op %q", op)
	}
	return op, id, vals, nil
}

// --- mutation-side WAL hooks --------------------------------------------

// durInsert appends the insert record for the ID the next insert will
// assign, before the in-memory apply. A failed append stored nothing
// (the mutation is rejected, the index unharmed); after a failed sync
// the log reports a sticky failure.
func (x *SkylineIndex) durInsert(id ID, p []float64) error {
	dur := x.dur
	dur.buf = appendInsertRec(dur.buf[:0], id, p)
	if _, err := dur.log.Append(dur.buf); err != nil {
		err = fmt.Errorf("stream: durable insert rejected: %w", err)
		dur.lastErr = err
		return err
	}
	dur.lastErr = nil
	return nil
}

// durInsertBatch group-commits one record per row (IDs are predicted:
// the lock is held, so the rows take consecutive IDs from x.next).
func (x *SkylineIndex) durInsertBatch(rows [][]float64) error {
	dur := x.dur
	if cap(dur.recs) < len(rows) {
		dur.recs = make([][]byte, len(rows))
	}
	recs := dur.recs[:len(rows)]
	for i, p := range rows {
		recs[i] = appendInsertRec(recs[i][:0], x.next+ID(i), p)
	}
	if _, err := dur.log.AppendBatch(recs); err != nil {
		err = fmt.Errorf("stream: durable batch insert rejected: %w", err)
		dur.lastErr = err
		return err
	}
	dur.lastErr = nil
	return nil
}

func (x *SkylineIndex) durDelete(id ID) error {
	dur := x.dur
	dur.buf = appendDeleteRec(dur.buf[:0], id)
	if _, err := dur.log.Append(dur.buf); err != nil {
		err = fmt.Errorf("stream: durable delete rejected: %w", err)
		dur.lastErr = err
		return err
	}
	dur.lastErr = nil
	return nil
}

// durApplied advances the checkpoint cadence after n applied records.
// A failed automatic checkpoint is recorded, not fatal: the WAL still
// holds every record, so durability is intact — only recovery time and
// disk use degrade until a later checkpoint succeeds.
func (x *SkylineIndex) durApplied(n int) {
	dur := x.dur
	dur.since += n
	if dur.every > 0 && dur.since >= dur.every {
		if err := x.checkpointLocked(); err != nil {
			dur.lastErr = fmt.Errorf("stream: checkpoint failed: %w", err)
		}
	}
}

// Err reports the index's durability health: nil for in-memory
// indexes and healthy durable ones. Non-nil when the WAL is poisoned
// (a sync failed, so acknowledged mutations may not be on disk — every
// further mutation will be rejected) or when the most recent durable
// operation failed (cleared by the next success).
func (x *SkylineIndex) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.dur == nil {
		return nil
	}
	if err := x.dur.log.Err(); err != nil {
		return err
	}
	return x.dur.lastErr
}

// Durable reports whether the index persists its mutations.
func (x *SkylineIndex) Durable() bool { return x.dur != nil }

// HasState reports whether dir holds a durable index's identity record —
// i.e. whether Recover would find existing state there rather than fail
// with ErrBadDataset. Callers choosing between recovering and creating a
// fresh durable index use this to branch.
func HasState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, metaName))
	return err == nil
}

// --- checkpoints ---------------------------------------------------------

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listCkpts returns the LSNs of the directory's checkpoints, ascending.
func listCkpts(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if lsn, ok := parseCkptName(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	slices.Sort(out)
	return out, nil
}

// checkpoint is the decoded content of a checkpoint file.
type checkpoint struct {
	d, k      int
	lsn       uint64 // WAL replay resumes here
	nextID    uint64
	liveEpoch uint64 // LiveEpoch counter at checkpoint time
	bandEpoch uint64 // band membership epoch at checkpoint time
	ids       []uint64
	vals      []float64 // len(ids)×d originals, row-major
	bandIDs   []uint64  // band membership, for post-restore verification
	bandCnt   []uint32  // dominator counts, parallel to bandIDs
}

func (x *SkylineIndex) checkpointLocked() error {
	dur := x.dur
	start := time.Now()
	lsn := dur.log.NextLSN()
	slots := x.core.AppendLiveSlots(nil)
	sky := x.core.Skyline()

	buf := make([]byte, 0, 64+len(slots)*(8+x.d*8)+len(sky)*12)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, ckptMagic)
	buf = le.AppendUint32(buf, ckptVersion)
	buf = le.AppendUint32(buf, uint32(x.d))
	buf = le.AppendUint32(buf, uint32(x.k))
	buf = le.AppendUint64(buf, lsn)
	buf = le.AppendUint64(buf, uint64(x.next))
	buf = le.AppendUint64(buf, x.version.Load())
	buf = le.AppendUint64(buf, x.epoch.Load())
	buf = le.AppendUint64(buf, uint64(len(slots)))
	for _, slot := range slots {
		buf = le.AppendUint64(buf, uint64(x.ids[slot]))
		for _, v := range x.origRow(slot) {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = le.AppendUint64(buf, uint64(len(sky)))
	for _, slot := range sky {
		buf = le.AppendUint64(buf, uint64(x.ids[slot]))
		var c int32
		if x.k > 1 {
			c = x.core.DominatorCount(slot)
		}
		buf = le.AppendUint32(buf, uint32(c))
	}
	buf = le.AppendUint32(buf, crc32.Checksum(buf, ckptCRC))

	path := filepath.Join(dur.dir, ckptName(lsn))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Nothing the checkpoint supersedes may be unlinked before its
	// rename is durable.
	if err := dur.log.SyncDir(); err != nil {
		return err
	}

	// The new checkpoint supersedes everything older. Cleanup failures
	// are ignorable: stale files waste disk, not correctness (recovery
	// always picks the newest checkpoint).
	if old, err := listCkpts(dur.dir); err == nil {
		for _, o := range old {
			if o < lsn {
				os.Remove(filepath.Join(dur.dir, ckptName(o)))
			}
		}
	}
	dur.log.TruncateBefore(lsn)
	dur.since = 0
	el := int64(time.Since(start))
	dur.ckpts++
	dur.ckptNs += el
	dur.lastCkptNs = el
	return nil
}

// DurabilityStats reports the index's WAL and checkpoint cost counters.
// ok is false for in-memory indexes, which have nothing to report. A
// Collection backed by a durable index surfaces these through
// CollectionStats.Durability.
func (x *SkylineIndex) DurabilityStats() (skybench.DurabilityStats, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.dur == nil {
		return skybench.DurabilityStats{}, false
	}
	ws := x.dur.log.Stats()
	return skybench.DurabilityStats{
		WALFsyncs:      ws.Fsyncs,
		WALFsyncTime:   ws.FsyncTime,
		WALSegments:    ws.Segments,
		Checkpoints:    x.dur.ckpts,
		CheckpointTime: time.Duration(x.dur.ckptNs),
		LastCheckpoint: time.Duration(x.dur.lastCkptNs),
	}, true
}

func readCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(filepath.Base(path), data)
}

// decodeCheckpoint parses the bytes of the checkpoint file called name,
// failing with ErrCorruptWAL on anything malformed. Every count in the
// file is checked against the bytes left before anything is allocated
// for it, by division, so no value a CRC-valid file holds can overflow
// the check.
func decodeCheckpoint(name string, data []byte) (*checkpoint, error) {
	corrupt := func(what string) (*checkpoint, error) {
		return nil, fmt.Errorf("%w: checkpoint %s: %s", skybench.ErrCorruptWAL, name, what)
	}
	// Header (48 bytes), live count (8) and CRC (4).
	if len(data) < 60 {
		return corrupt("truncated")
	}
	le := binary.LittleEndian
	body, sum := data[:len(data)-4], le.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, ckptCRC) != sum {
		return corrupt("CRC mismatch")
	}
	if le.Uint32(body[0:]) != ckptMagic || le.Uint32(body[4:]) != ckptVersion {
		return corrupt("bad magic or version")
	}
	ck := &checkpoint{
		d:         int(le.Uint32(body[8:])),
		k:         int(le.Uint32(body[12:])),
		lsn:       le.Uint64(body[16:]),
		nextID:    le.Uint64(body[24:]),
		liveEpoch: le.Uint64(body[32:]),
		bandEpoch: le.Uint64(body[40:]),
	}
	if ck.d < 1 {
		return corrupt("implausible dimensionality")
	}
	off := 48
	n := int(le.Uint64(body[off:]))
	off += 8
	rowBytes := 8 + ck.d*8
	if n < 0 || n > (len(body)-off)/rowBytes {
		return corrupt("live set overruns file")
	}
	ck.ids = make([]uint64, n)
	ck.vals = make([]float64, n*ck.d)
	for i := 0; i < n; i++ {
		ck.ids[i] = le.Uint64(body[off:])
		off += 8
		for j := 0; j < ck.d; j++ {
			ck.vals[i*ck.d+j] = math.Float64frombits(le.Uint64(body[off:]))
			off += 8
		}
	}
	if len(body)-off < 8 {
		return corrupt("band section missing")
	}
	m := int(le.Uint64(body[off:]))
	off += 8
	if rest := len(body) - off; m < 0 || rest%12 != 0 || m != rest/12 {
		return corrupt("band section size mismatch")
	}
	ck.bandIDs = make([]uint64, m)
	ck.bandCnt = make([]uint32, m)
	for i := 0; i < m; i++ {
		ck.bandIDs[i] = le.Uint64(body[off:])
		ck.bandCnt[i] = le.Uint32(body[off+8:])
		off += 12
	}
	return ck, nil
}

// --- recovery ------------------------------------------------------------

// Recover restores a durable SkylineIndex from dir: newest checkpoint,
// then the WAL tail, truncating a torn final record. cfg plays the
// same role as in New; its Prefs and SkybandK may be left zero to
// adopt the recovered values, but when set they must match what the
// directory was created with (mismatches fail with ErrBadQuery — the
// directory's points answer a different query). The recovered index
// appends to the same directory; an index recovered while another
// process holds the directory is undefined.
func Recover(dir string, cfg Config) (*SkylineIndex, error) {
	meta, err := readMeta(dir)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: no durable stream state in %q", skybench.ErrBadDataset, dir)
	}
	if err != nil {
		return nil, err
	}

	// Reconcile cfg with the directory's recorded identity.
	if k := max(cfg.SkybandK, 1); cfg.SkybandK != 0 && k != meta.K {
		return nil, fmt.Errorf("%w: SkybandK %d, but %q was created with %d", skybench.ErrBadQuery, k, dir, meta.K)
	}
	if len(cfg.Prefs) != 0 {
		given := make([]int, len(cfg.Prefs))
		allMin := true
		for i, p := range cfg.Prefs {
			given[i] = int(p)
			if p != skybench.Min {
				allMin = false
			}
		}
		recorded := meta.Prefs
		if allMin && recorded == nil {
			// All-Min and empty are the same preference vector.
		} else if !slices.Equal(given, recorded) {
			return nil, fmt.Errorf("%w: preferences %v, but %q was created with %v", skybench.ErrBadQuery, given, dir, recorded)
		}
	} else if len(meta.Prefs) != 0 {
		cfg.Prefs = make([]skybench.Pref, len(meta.Prefs))
		for i, v := range meta.Prefs {
			cfg.Prefs[i] = skybench.Pref(v)
		}
	}
	cfg.SkybandK = meta.K

	dcfg := Durability{Dir: dir}
	if cfg.Durable != nil {
		dcfg = *cfg.Durable
		if dcfg.Dir == "" {
			dcfg.Dir = dir
		} else if dcfg.Dir != dir {
			return nil, fmt.Errorf("%w: Recover dir %q disagrees with Durability.Dir %q", skybench.ErrBadQuery, dir, dcfg.Dir)
		}
	}

	// Build the in-memory index without the WAL; it is attached once
	// replay is done. No delta subscriber can register before Recover
	// returns, so replayed history is never delivered as live traffic.
	cfgBuild := cfg
	cfgBuild.Durable = nil
	x, err := New(meta.D, cfgBuild)
	if err != nil {
		return nil, err
	}

	// Open the WAL first: it validates every segment, truncates a torn
	// final frame, and fails on real corruption before any state loads.
	log, err := wal.Open(dir, dcfg.walOptions())
	if err != nil {
		return nil, wrapWal(err)
	}
	fail := func(err error) (*SkylineIndex, error) {
		log.Close()
		return nil, err
	}

	var from uint64
	cks, err := listCkpts(dir)
	if err != nil {
		return fail(err)
	}
	if len(cks) > 0 {
		ck, err := readCheckpoint(filepath.Join(dir, ckptName(cks[len(cks)-1])))
		if err != nil {
			return fail(err)
		}
		if ck.d != meta.D || ck.k != meta.K {
			return fail(fmt.Errorf("%w: checkpoint shape (d=%d, k=%d) disagrees with meta (d=%d, k=%d)", skybench.ErrCorruptWAL, ck.d, ck.k, meta.D, meta.K))
		}
		// Every row is allocated unplaced, then one pass places them all:
		// no membership events, no rebuild.
		for i, id := range ck.ids {
			x.allocSlot(ID(id), ck.vals[i*ck.d:(i+1)*ck.d])
		}
		x.core.Load()
		x.next = max(x.next, ID(ck.nextID))
		if err := x.verifyBand(ck); err != nil {
			return fail(err)
		}
		x.version.Store(ck.liveEpoch)
		x.epoch.Store(ck.bandEpoch)
		from = ck.lsn
	}

	if _, err := wal.Replay(dir, from, func(lsn uint64, payload []byte) error {
		return x.applyRecord(lsn, payload)
	}); err != nil {
		return fail(wrapWal(err))
	}

	x.dur = &durableState{dir: dir, log: log, every: dcfg.cadence()}
	return x, nil
}

// applyRecord replays one WAL record during recovery (index lock not
// yet shared — recovery owns the index exclusively). Every failure is
// corruption: records were only ever appended for validated mutations.
func (x *SkylineIndex) applyRecord(lsn uint64, payload []byte) error {
	op, id, vals, err := decodeRec(payload, x.d)
	if err != nil {
		return fmt.Errorf("%w: record %d: %v", skybench.ErrCorruptWAL, lsn, err)
	}
	switch op {
	case recInsert:
		if _, ok := x.loc[id]; ok {
			return fmt.Errorf("%w: record %d re-inserts live ID %d", skybench.ErrCorruptWAL, lsn, id)
		}
		x.insertLocked(id, vals)
	case recDelete:
		slot, ok := x.loc[id]
		if !ok {
			return fmt.Errorf("%w: record %d deletes unknown ID %d", skybench.ErrCorruptWAL, lsn, id)
		}
		x.deleteSlotLocked(id, slot)
	}
	return nil
}

// verifyBand proves the restored index agrees with the checkpoint's
// recorded band membership and dominator counts — the integrity check
// that catches a checkpoint whose live set and band drifted apart
// (disk corruption the CRC caught nothing of, or a software bug).
func (x *SkylineIndex) verifyBand(ck *checkpoint) error {
	sky := x.core.Skyline()
	if len(sky) != len(ck.bandIDs) {
		return fmt.Errorf("%w: restored band has %d points, checkpoint recorded %d", skybench.ErrCorruptWAL, len(sky), len(ck.bandIDs))
	}
	want := make(map[uint64]uint32, len(ck.bandIDs))
	for i, id := range ck.bandIDs {
		want[id] = ck.bandCnt[i]
	}
	for _, slot := range sky {
		id := uint64(x.ids[slot])
		cnt, ok := want[id]
		if !ok {
			return fmt.Errorf("%w: restored band contains ID %d the checkpoint did not record", skybench.ErrCorruptWAL, id)
		}
		var c int32
		if x.k > 1 {
			c = x.core.DominatorCount(slot)
		}
		if uint32(c) != cnt {
			return fmt.Errorf("%w: ID %d restored with %d dominators, checkpoint recorded %d", skybench.ErrCorruptWAL, id, c, cnt)
		}
	}
	return nil
}
