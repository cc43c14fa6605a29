package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as far as the smoke test reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// quickRun runs one workload in-process with -quick and returns its
// output and its decoded result line.
func quickRun(t *testing.T, workload string, trace bool) (string, outcome) {
	t.Helper()
	cfg := &config{
		workload: workload, seed: 1, seconds: refSeconds, quick: true,
		trace: trace, child: trace, focus: trace,
		traceOut: filepath.Join(t.TempDir(), "spans.ndjson"),
		nproc:    2, threads: 2, clients: 2,
	}
	var buf bytes.Buffer
	ok, err := run(cfg, &buf)
	if err != nil || !ok {
		t.Fatalf("%s (trace %v): ok=%v err=%v\n%s", workload, trace, ok, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if trace {
		spans, err := os.ReadFile(cfg.traceOut)
		if err != nil || !bytes.Contains(spans, []byte(`"workload":"`+workload+`"`)) {
			t.Errorf("%s: no spans written to -trace-out (%v)", workload, err)
		}
	}
	return buf.String(), o
}

// TestQuickSmoke runs all four workloads and the traced ladder at tiny
// sizes and holds the output against BENCHMARK.json, so the harness
// keeps compiling and keeps its contract as the library changes.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the round counts are sized for %d", bench.RunSeconds, refSeconds)
	}
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bench.Workloads), len(workloadNames))
	}

	start := time.Now()
	layers := metrics{}
	for i, name := range workloadNames {
		if bench.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bench.Workloads[i].Name, name)
		}
		text, o := quickRun(t, name, false)
		if o.Failed != 0 || !o.Correct || o.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, correct %v", name, o.Attempted, o.Failed, o.Correct)
		}
		if !strings.Contains(text, name+" ops_attempted "+strconv.Itoa(o.Attempted)+" ops_failed 0") {
			t.Errorf("%s: ops_attempted / ops_failed not printed", name)
		}
		if len(o.Metrics) != len(bench.EndToEnd) {
			t.Errorf("%s: %d metrics in the result, want the %d end-to-end ones", name, len(o.Metrics), len(bench.EndToEnd))
		}
		for _, m := range bench.EndToEnd {
			got, ok := o.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, m.Name, got, ok, m.Unit)
			}
			if !strings.Contains(text, "\n"+m.Name+" ") {
				t.Errorf("%s: %s is not printed by name", name, m.Name)
			}
		}

		text, o = quickRun(t, name, true)
		if o.Failed != 0 || !o.Correct {
			t.Errorf("%s traced: failed %d, correct %v", name, o.Failed, o.Correct)
		}
		for n, v := range o.Metrics {
			if _, dup := layers[n]; dup && !strings.HasPrefix(n, "rt.") && !strings.HasPrefix(n, "host.") && !strings.HasPrefix(n, "bench.") {
				t.Errorf("per-layer metric %s comes from two workloads", n)
			}
			layers[n] = v
			if !strings.Contains(text, "\n"+n+" ") {
				t.Errorf("%s traced: %s is not printed by name", name, n)
			}
		}
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("the quick runs took %v, want under 10 s", took)
	}

	if len(layers) != len(bench.PerLayer) {
		t.Errorf("the traced runs print %d per-layer metrics, BENCHMARK.json names %d", len(layers), len(bench.PerLayer))
	}
	for _, m := range bench.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

// TestImportsStayPublic keeps the benchmark on the public surface: the
// one internal package it may import is internal/cluster, for the
// coordinator rung.
func TestImportsStayPublic(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "skybench/internal/") && path != "skybench/internal/cluster" {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}
