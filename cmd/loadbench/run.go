package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// workload is one named closed-loop scenario. A run calls gen once,
// then setup (several times, closing in between), the rounds, verify
// and, in a traced run, layers.
type workload interface {
	spec() spec
	// gen makes the inputs from the seed. It is not timed.
	gen()
	// setup constructs the system, loads the data and runs the warm-up
	// rounds, timing its pieces on rec.h.
	setup(rec *recorder) error
	// round performs round r of the fixed script: both op classes,
	// interleaved. r < 0 is a warm-up round and records nothing.
	round(r int, rec *recorder)
	// verify runs the oracle over the recorded samples.
	verify(rec *recorder)
	// layers replays the cost ladder and adds the per-layer metrics.
	// It runs after verify, before close.
	layers(rec *recorder, m metrics)
	close()
}

// spec is what the runner needs to know about a workload.
type spec struct {
	name        string
	classes     [2]string // primary and secondary op
	rounds      int       // measured rounds at refSeconds
	callers     int       // concurrent closed loops
	opsPerRound float64   // ops one round adds to ops_per_s
	opName      string    // what ops_per_s counts
	samples     int       // recorded samples per caller and round
	spans       int       // recorded spans per round
}

// refSeconds is run_seconds in BENCHMARK.json: every workload's round
// count is sized to measure for about that long on the dev VM, and
// -seconds scales the counts from there.
const refSeconds = 15

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 3

// Classes of an op.
const (
	primary   = 0
	secondary = 1
)

// sample is one measured op.
type sample struct {
	class uint8
	round int32
	piece int32 // the timed piece the op ran in
	shape int32 // which expected answer applies
	ns    int64 // latency around the public call
	aux   int64 // workload-specific: engine elapsed ns, response bytes
	ok    bool  // the call succeeded; verify clears it on a wrong answer
	dig   digest
}

// recorder collects what a script run measures.
type recorder struct {
	h       *host
	tr      *tracer
	samples [][]sample // per caller
	// checks counts verification steps that are not ops: telemetry,
	// recovery, ladder equality.
	checks, checksFailed int
	rt                   runtimeStats // what the script cost, once it has run
	out                  io.Writer
}

func newRecorder(sp spec, rounds int, nproc int, tr *tracer, out io.Writer) *recorder {
	rec := &recorder{
		h:       newHost(nproc, (rounds+64)*4),
		tr:      tr,
		samples: make([][]sample, sp.callers),
		out:     out,
	}
	for c := range rec.samples {
		rec.samples[c] = make([]sample, 0, rounds*sp.samples)
	}
	return rec
}

func (rec *recorder) add(caller int, s sample) {
	if s.round >= 0 {
		rec.samples[caller] = append(rec.samples[caller], s)
	}
}

// check records one verification step that is not an op.
func (rec *recorder) check(ok bool, format string, args ...any) {
	rec.checks++
	if !ok {
		rec.checksFailed++
		fmt.Fprintf(rec.out, "FAILED check: "+format+"\n", args...)
	}
}

// each calls fn for every sample of the class.
func (rec *recorder) each(class int, fn func(s *sample)) {
	for c := range rec.samples {
		for i := range rec.samples[c] {
			if int(rec.samples[c][i].class) == class {
				fn(&rec.samples[c][i])
			}
		}
	}
}

// latencies returns the class's latencies in ms, raw and scaled to the
// quiet host.
func (rec *recorder) latencies(class int) (raw, norm []float64) {
	quiet := rec.h.quiet()
	rec.each(class, func(s *sample) {
		ms := float64(s.ns) / 1e6
		raw = append(raw, ms)
		norm = append(norm, ms*rec.h.factor(int(s.piece), quiet))
	})
	return raw, norm
}

// tail is the class's highest supported raw tail latency in ms; it
// prints which percentile that is, and of how many samples.
func (rec *recorder) tail(class int, name string) float64 {
	raw, _ := rec.latencies(class)
	p := supportedTail(len(raw))
	fmt.Fprintf(rec.out, "%s is p%g of %d samples\n", name, p, len(raw))
	return percentile(raw, p)
}

// normMs is the duration of a whole piece scaled to the quiet host.
func (rec *recorder) normMs(p int) float64 {
	return float64(rec.h.pieces[p].ns) / 1e6 * rec.h.factor(p, rec.h.quiet())
}

// counts returns ops attempted and failed: samples plus checks.
func (rec *recorder) counts() (attempted, failed int) {
	for c := range rec.samples {
		for _, s := range rec.samples[c] {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	return attempted + rec.checks, failed + rec.checksFailed
}

// verifyDigests marks every sample whose answer differs from
// want[class][shape], and every sample of a class the prefix check
// rejected.
func (rec *recorder) verifyDigests(want [2][]digest, ok [2][]bool) {
	for class := range want {
		rec.each(class, func(s *sample) {
			if !ok[class][s.shape] || s.dig != want[class][s.shape] {
				s.ok = false
			}
		})
	}
}

// runtimeStats is what one script run cost the process.
type runtimeStats struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	ops      int
}

// script is stages 2 and 3 of a run: a GC, then the fixed rounds. It
// stops early, and says so, only when the host is so slow that the run
// would not end within the benchmark's time limit. What the rounds cost
// the process is left in rec.rt.
func script(cfg *config, w workload, rec *recorder, rounds int) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	limit := time.Duration(1.3 * cfg.seconds * float64(time.Second))
	rec.h.probe()
	done := 0
	for r := 0; r < rounds; r++ {
		w.round(r, rec)
		done++
		if time.Since(t0) > limit && !cfg.quick {
			fmt.Fprintf(rec.out, "WARNING: host too slow, measured %d of %d rounds\n", done, rounds)
			break
		}
	}
	rt := runtimeStats{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	rt.alloc = m1.TotalAlloc - m0.TotalAlloc
	rt.gcCycles = m1.NumGC - m0.NumGC
	rt.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	rt.ops, _ = rec.counts()
	rec.rt = rt
}

// endToEnd computes the metrics of the measured phase that do not need
// the set-up: the two medians and the throughput.
func endToEnd(sp spec, rec *recorder, m metrics, out io.Writer) {
	quiet := rec.h.quiet()
	for class, name := range []string{"primary_ms_p50", "secondary_ms_p50"} {
		raw, norm := rec.latencies(class)
		m.set(name, median(norm), "ms")
		fmt.Fprintf(out, "%-18s %10.4f ms   (%s; raw wall-clock median %.4f ms, n=%d)\n",
			name, median(norm), sp.classes[class], median(raw), len(raw))
	}
	// One rate per caller and round: the round's ops over the summed,
	// scaled latencies of its ops.
	var ops, secs []float64
	for c := range rec.samples {
		perRound := map[int32]float64{}
		for _, s := range rec.samples[c] {
			perRound[s.round] += float64(s.ns) / 1e9 * rec.h.factor(int(s.piece), quiet)
		}
		for _, sec := range perRound {
			ops = append(ops, sp.opsPerRound)
			secs = append(secs, sec)
		}
	}
	rate := medianRate(ops, secs, sp.callers)
	m.set("ops_per_s", rate, "1/s")
	fmt.Fprintf(out, "%-18s %10.4f 1/s  (%s; %d caller(s) × median of %d rounds)\n", "ops_per_s", rate, sp.opName, sp.callers, len(ops))
}

// rounds scales the workload's round count from refSeconds to -seconds.
func (cfg *config) rounds(sp spec) int {
	return max(2, int(float64(sp.rounds)*cfg.seconds/refSeconds+0.5))
}

// runUntraced is the end-to-end run of one workload: three set-ups,
// the fixed script, the oracle.
func runUntraced(cfg *config, w workload, out io.Writer) (outcome, error) {
	sp := w.spec()
	rounds := cfg.rounds(sp)
	fmt.Fprintf(out, "workload %s: seed %d, T=%d engine threads, C=%d clients, %d rounds, %d set-ups\n",
		sp.name, cfg.seed, cfg.threads, cfg.clients, rounds, setupReps)
	w.gen()
	defer w.close()
	rec := newRecorder(sp, rounds, cfg.nproc, nil, out)
	var setups [][2]int // piece ranges
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		rec.h.probe()
		from := len(rec.h.pieces)
		if err := w.setup(rec); err != nil {
			return outcome{}, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, [2]int{from, len(rec.h.pieces)})
	}
	script(cfg, w, rec, rounds)
	rss := peakRSSMB() // before the oracle allocates
	w.verify(rec)

	m := metrics{}
	var setupS, setupRaw []float64
	for _, r := range setups {
		norm, raw := 0.0, 0.0
		for p := r[0]; p < r[1]; p++ {
			norm += rec.normMs(p) / 1e3
			raw += float64(rec.h.pieces[p].ns) / 1e9
		}
		setupS, setupRaw = append(setupS, norm), append(setupRaw, raw)
	}
	m.set("setup_s", median(setupS), "s")
	fmt.Fprintf(out, "%-18s %10.4f s    (median of %d set-ups; raw wall-clock median %.4f s)\n", "setup_s", median(setupS), setupReps, median(setupRaw))
	endToEnd(sp, rec, m, out)
	m.set("peak_rss_mb", rss, "MB")
	fmt.Fprintf(out, "%-18s %10.4f MB   (VmHWM after the measured phase)\n", "peak_rss_mb", rss)
	printRuntime(cfg, rec, metrics{}, out)
	attempted, failed := rec.counts()
	return finish(sp, attempted, failed, m, out), nil
}

// printRuntime reports what the script cost the process and how steady
// the host was, and stores the same as per-layer metrics in m.
func printRuntime(cfg *config, rec *recorder, m metrics, out io.Writer) {
	rt := rec.rt
	ops := float64(max(rt.ops, 1))
	m.set("rt.cpu_ms_per_op", float64(rt.cpu)/1e6/ops, "ms")
	m.set("rt.alloc_kb_per_op", float64(rt.alloc)/1024/ops, "KB")
	m.set("rt.gc_cycles", float64(rt.gcCycles), "count")
	refs := rec.h.refs(wide)
	d, warn := drift(refs)
	m.set("host.ref_ms_p50", median(refs)/1e6, "ms")
	m.set("host.ref_drift_frac", d, "ratio")
	fmt.Fprintf(out, "measured phase %.2f s wall, %.3f ms cpu/op, %.1f KB alloc/op, %d GC cycles, %.3f ms GC pause\n",
		rt.wall.Seconds(), float64(rt.cpu)/1e6/ops, float64(rt.alloc)/1024/ops, rt.gcCycles, float64(rt.gcPause)/1e6)
	fmt.Fprintf(out, "host probe on %d threads: median %.3f ms, drift %+.1f%%; on 1 thread: median %.3f ms, quiet %.3f ms\n",
		cfg.nproc, median(refs)/1e6, 100*d, median(rec.h.refs(narrow))/1e6, rec.h.quiet()/1e6)
	if warn {
		fmt.Fprintf(out, "WARNING: the host probe drifted by more than %.0f%% within the run: the host moved, not only the program\n", 100*driftLimit)
	}
}

// finish prints the failure account and builds the run's last line.
func finish(sp spec, attempted, failed int, m metrics, out io.Writer) outcome {
	fmt.Fprintf(out, "%s ops_attempted %d ops_failed %d\n", sp.name, attempted, failed)
	return outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// runTraced is one workload's share of the traced run: the script at a
// quarter of the rounds with spans on, then the ladder. With focus the
// same script first runs untraced, for the tracing overhead and the
// process's own costs.
func runTraced(cfg *config, w workload, out io.Writer) (outcome, error) {
	sp := w.spec()
	rounds := max(2, cfg.rounds(sp)/4)
	fmt.Fprintf(out, "workload %s traced: seed %d, T=%d, %d rounds, one client\n", sp.name, cfg.seed, cfg.threads, rounds)
	w.gen()
	defer w.close()
	m := metrics{}
	attempted, failed := 0, 0
	untraced := 0.0
	if cfg.focus {
		rec := newRecorder(sp, rounds, cfg.nproc, nil, out)
		if err := w.setup(rec); err != nil {
			return outcome{}, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		script(cfg, w, rec, rounds)
		w.verify(rec)
		w.close()
		printRuntime(cfg, rec, m, out)
		_, norm := rec.latencies(primary)
		untraced = median(norm)
		attempted, failed = rec.counts()
	}
	rec := newRecorder(sp, rounds, cfg.nproc, newTracer((rounds+8)*sp.spans+4096), out)
	if err := w.setup(rec); err != nil {
		return outcome{}, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	script(cfg, w, rec, rounds)
	w.verify(rec)
	w.layers(rec, m)
	if cfg.focus {
		_, norm := rec.latencies(primary)
		m.set("bench.trace_overhead_frac", median(norm)/untraced-1, "ratio")
	}
	if err := rec.tr.write(cfg.traceOut, sp.name); err != nil {
		return outcome{}, fmt.Errorf("%s: writing spans: %w", sp.name, err)
	}
	fmt.Fprintf(out, "%d spans appended to %s\n", len(rec.tr.spans), cfg.traceOut)
	for _, name := range m.names() {
		fmt.Fprintf(out, "%-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	a, f := rec.counts()
	return finish(sp, attempted+a, failed+f, m, out), nil
}
