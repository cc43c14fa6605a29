package skybench_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"skybench"
)

// TestParsePivotRoundTrip checks ParsePivot against every strategy's
// String form (the satellite task: pivot strategies used to be
// unparseable).
func TestParsePivotRoundTrip(t *testing.T) {
	strategies := []skybench.PivotStrategy{
		skybench.PivotMedian, skybench.PivotBalanced, skybench.PivotManhattan,
		skybench.PivotVolume, skybench.PivotRandom,
	}
	for _, p := range strategies {
		got, err := skybench.ParsePivot(p.String())
		if err != nil {
			t.Errorf("ParsePivot(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("ParsePivot(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := skybench.ParsePivot("bogus"); err == nil {
		t.Error("ParsePivot accepted an unknown name")
	}
}

// TestAlgorithmNamesSorted checks that AlgorithmNames is sorted,
// complete, and round-trips through ParseAlgorithm.
func TestAlgorithmNamesSorted(t *testing.T) {
	names := skybench.AlgorithmNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("AlgorithmNames not sorted: %v", names)
	}
	// AlgorithmNames carries one extra entry beyond Algorithms: the
	// "auto" meta-algorithm, which is parseable and servable through a
	// Store but is not a comparison point the benchmarks iterate.
	if len(names) != len(skybench.Algorithms)+1 {
		t.Errorf("AlgorithmNames lists %d algorithms, Algorithms has %d (+auto)", len(names), len(skybench.Algorithms))
	}
	found := false
	for _, name := range names {
		if name == skybench.Auto.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("AlgorithmNames %v is missing %q", names, skybench.Auto)
	}
	for _, name := range names {
		a, err := skybench.ParseAlgorithm(name)
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
			continue
		}
		if a.String() != name {
			t.Errorf("ParseAlgorithm(%q).String() = %q", name, a.String())
		}
	}
}

// TestResultClone checks that Clone detaches a result from any shared
// storage.
func TestResultClone(t *testing.T) {
	r := skybench.Result{Indices: []int{3, 1, 4}}
	c := r.Clone()
	r.Indices[0] = 99
	if c.Indices[0] != 3 {
		t.Errorf("Clone shares storage: got %v", c.Indices)
	}
	empty := skybench.Result{}.Clone()
	if len(empty.Indices) != 0 {
		t.Errorf("Clone of empty result: %v", empty.Indices)
	}
}

// skylineStaircase builds a dataset whose skyline is every point: x
// increases while y decreases, so the points are mutually incomparable.
func skylineStaircase(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = []float64{float64(i), float64(n-i) + 0.5*float64(i)}
	}
	return rows
}

// singleWinner builds a dataset whose skyline is exactly {w}: every
// other point is a copy of a dominated value. w is picked to differ from
// firstConfirmed so overwriting is observable.
func singleWinner(n, firstConfirmed int) ([][]float64, int) {
	w := 0
	if firstConfirmed == 0 {
		w = 1
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{10, 10}
	}
	rows[w] = []float64{0, 0}
	return rows, w
}

// TestEngineReuseIndicesAliasing is the regression test for the
// documented aliasing rule: with Query.ReuseIndices a second Engine.Run
// invalidates the first result's Indices (they alias reused storage) and
// Clone detaches them; without it Engine.Run hands out caller-owned
// indices that later queries cannot touch.
func TestEngineReuseIndicesAliasing(t *testing.T) {
	allSky := skylineStaircase(6)
	dsAll, err := skybench.NewDataset(allSky)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(1)
	defer eng.Close()
	bg := context.Background()
	// runOne answers q over a dataset whose single skyline point differs
	// from overwrite, the index in the slot it will land on.
	runOne := func(overwrite int, q skybench.Query) {
		t.Helper()
		oneSky, _ := singleWinner(4, overwrite)
		dsOne, err := skybench.NewDataset(oneSky)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(bg, dsOne, q); err != nil {
			t.Fatal(err)
		}
	}

	reuse := skybench.Query{ReuseIndices: true}
	first, err := eng.Run(bg, dsAll, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Indices) != len(allSky) {
		t.Fatalf("staircase skyline has %d points, want %d", len(first.Indices), len(allSky))
	}
	wantFirst := append([]int(nil), first.Indices...)
	saved := first.Clone()
	runOne(wantFirst[0], reuse)
	// The aliasing rule: first.Indices now reflects the second query's
	// scratch — its first entry has been overwritten with the second
	// skyline's sole index, proving invalidation.
	if first.Indices[0] == wantFirst[0] {
		t.Errorf("second Run did not invalidate the first ReuseIndices result — "+
			"either the aliasing contract changed (update the docs!), the zero-copy "+
			"path is copying, or this test is stale: got %v", first.Indices[0])
	}
	for i := range wantFirst {
		if saved.Indices[i] != wantFirst[i] {
			t.Fatalf("Clone was corrupted by the second call: %v != %v", saved.Indices, wantFirst)
		}
	}

	// Without ReuseIndices: caller-owned, later queries must not touch it.
	got, err := eng.Run(bg, dsAll, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), got.Indices...)
	runOne(want[0], skybench.Query{})
	for i := range want {
		if got.Indices[i] != want[i] {
			t.Fatalf("Engine.Run result without ReuseIndices was invalidated by a later query at %d: %v != %v",
				i, got.Indices, want)
		}
	}
}

// surfacePackages are the public packages whose exported identifiers
// testdata/exported.txt pins, as directories relative to the module root.
var surfacePackages = []string{".", "stream", "serve", "serve/client"}

// exportedSurface lists one package directory's exported identifiers,
// one per line, sorted: top-level funcs, types, consts and vars, the
// exported methods of exported types, and the exported fields of
// exported structs. Test files are not part of the surface.
func exportedSurface(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if !decl.Name.IsExported() {
						continue
					}
					if decl.Recv == nil {
						names = append(names, "func "+decl.Name.Name)
						continue
					}
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						names = append(names, "method "+id.Name+"."+decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if !spec.Name.IsExported() {
								continue
							}
							names = append(names, "type "+spec.Name.Name)
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									if id.IsExported() {
										names = append(names, "field "+spec.Name.Name+"."+id.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									names = append(names, decl.Tok.String()+" "+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestExportedSurface pins the exported identifiers of the public
// packages to testdata/exported.txt, so that a new public name shows up
// as a one-line diff. Regenerate it with
//
//	go test -run TestExportedSurface -update .
func TestExportedSurface(t *testing.T) {
	var b strings.Builder
	for _, dir := range surfacePackages {
		names := exportedSurface(t, dir)
		fmt.Fprintf(&b, "# %s: %d\n", dir, len(names))
		for _, name := range names {
			b.WriteString(name + "\n")
		}
	}
	path := filepath.Join("testdata", "exported.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("exported surface differs from %s (run with -update to accept):\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("-" + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+" + l + "\n")
		}
	}
	return b.String()
}
