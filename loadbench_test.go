package skybench_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLoadbench runs the benchmark harness's own tests. cmd/loadbench is
// a module of its own, so `go test ./...` at the root does not reach it;
// this test does, so a library change that breaks the harness's build,
// its -quick smoke of all four workloads or its "imports only
// internal/cluster" guard fails tier-1 instead of the benchmark pipeline
// later. It is not parallel: the smoke holds its quick runs to a
// wall-clock budget.
func TestLoadbench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a nested go test of cmd/loadbench")
	}
	cmd := exec.Command("go", "-C", filepath.Join("cmd", "loadbench"), "test", "./...")
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	t.Logf("go -C cmd/loadbench test ./...\n%s", out)
	if err == nil {
		return
	}
	// The smoke's budget is wall-clock and most of it is the harness's
	// own host probes, so on a busy shared host it can be missed with
	// every workload built, run and verified. That says nothing about the
	// library: skip, but only when it is the one complaint in the output.
	complaints := regexp.MustCompile(`(?m)^\s+\w+_test\.go:\d+: .*$`).FindAllString(string(out), -1)
	if len(complaints) == 1 && strings.Contains(complaints[0], "the quick runs took") {
		t.Skipf("cmd/loadbench is correct but this host missed its smoke's wall-clock budget: %s", strings.TrimSpace(complaints[0]))
	}
	t.Fatal(err)
}
