// Command loadbench is the repository's benchmark: one single-process,
// closed-loop load generator that runs four named workloads against
// the public surface of skybench (Engine, Store, stream, serve and its
// client), verifies every answer and prints five end-to-end metrics
// per workload; with -trace 1 it records spans around every call into
// a layer, replays a per-query cost ladder (Engine → Collection → HTTP
// → coordinator) and prints the per-layer metrics. README.md beside
// this file defines every workload and metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	quick    bool // tiny sizes, for the smoke test
	child    bool // a traced run's per-workload process: no fan-out
	focus    bool // this child also runs the script untraced

	nproc   int
	threads int // T = min(nproc, 4) engine threads
	clients int // C = min(nproc, 2) client connections
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set stores a metric; a value that is not a number (a ratio over an
// empty sample) is stored as 0, which JSON can carry.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metrics) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var workloadNames = []string{"batch_anti", "batch_corr", "serve_mix", "stream_churn"}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "batch_anti", "batch_corr":
		return newBatch(cfg), nil
	case "serve_mix":
		return newServeMix(cfg), nil
	case "stream_churn":
		return newStreamChurn(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v, or all)", cfg.workload, workloadNames)
}

func main() {
	cfg := &config{nproc: runtime.GOMAXPROCS(0)}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: batch_anti, batch_corr, serve_mix, stream_churn or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated rows, mutation trace and query shapes")
	flag.Float64Var(&cfg.seconds, "seconds", refSeconds, "length of the measured phase the round counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced ladder and prints the per-layer metrics instead")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "NDJSON file the traced run writes its spans to (default under the temporary directory)")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes: a smoke run, not a measurement")
	flag.BoolVar(&cfg.child, "child", false, "internal: run one workload's share of a traced run")
	flag.BoolVar(&cfg.focus, "focus", false, "internal: this share also runs untraced")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.threads, cfg.clients = min(cfg.nproc, 4), min(cfg.nproc, 2)
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(os.TempDir(), fmt.Sprintf("loadbench-trace-seed%d.ndjson", cfg.seed))
	}
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "loadbench: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run dispatches one invocation and reports whether every answer was
// correct.
func run(cfg *config, out io.Writer) (bool, error) {
	switch {
	case cfg.workload == "all":
		// One fresh process per workload, so that peak RSS and GC state
		// are the workload's own.
		ok := true
		for _, name := range workloadNames {
			o, err := runChild(cfg, name, cfg.trace, out)
			if err != nil {
				return false, err
			}
			printOutcome(out, o)
			ok = ok && o.Correct
		}
		return ok, nil
	case cfg.trace && !cfg.child:
		return runTraceFanout(cfg, out)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return false, err
	}
	var o outcome
	if cfg.trace {
		o, err = runTraced(cfg, w, out)
	} else {
		o, err = runUntraced(cfg, w, out)
	}
	if err != nil {
		return false, err
	}
	printOutcome(out, o)
	return o.Correct, nil
}

// runTraceFanout is the traced run: every workload's share in a
// process of its own, the named workload's with focus, and one result
// line that carries every per-layer metric.
func runTraceFanout(cfg *config, out io.Writer) (bool, error) {
	if _, err := newWorkload(cfg); err != nil {
		return false, err
	}
	if err := os.Remove(cfg.traceOut); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	total := outcome{Correct: true, Metrics: metrics{}}
	for _, name := range workloadNames {
		o, err := runChild(cfg, name, name == cfg.workload, out)
		if err != nil {
			return false, err
		}
		total.Correct = total.Correct && o.Correct
		total.Attempted += o.Attempted
		total.Failed += o.Failed
		for n, v := range o.Metrics {
			total.Metrics[n] = v
		}
	}
	printOutcome(out, total)
	return total.Correct, nil
}

// runChild re-executes the program for one workload, passes its output
// through except for the result line, and returns that line decoded.
func runChild(cfg *config, name string, focus bool, out io.Writer) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace-out", cfg.traceOut,
	}
	if cfg.trace {
		args = append(args, "-trace", "1", "-child")
		if focus {
			args = append(args, "-focus")
		}
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte{'\n'})
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(out, "%s\n", l)
	}
	var o outcome
	if err := json.Unmarshal(last, &o); err != nil {
		fmt.Fprintf(out, "%s\n", last)
		if runErr != nil {
			return outcome{}, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return outcome{}, fmt.Errorf("workload %s printed no result line: %w", name, err)
	}
	return o, nil
}

func printOutcome(out io.Writer, o outcome) {
	w := bufio.NewWriter(out)
	if err := json.NewEncoder(w).Encode(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench: encoding the result:", err)
	}
	w.Flush()
}
