package skybench_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// designNotGo lists the backquoted words of DESIGN.md that have the
// shape of a Go identifier but name nothing the tree's files hold as
// such: shell words and environment variables, HTTP, signal and tag
// words, metric names and their suffixes, a file a run writes, and
// x86 instructions and compare predicates that the assembly spells
// otherwise or does not use.
var designNotGo = map[string]bool{
	"go": true, "curl": true, "FAIL": true, "GODEBUG": true,
	"Accept": true, "SIGBUS": true, "omitempty": true,
	"par_eff": true, "busy_ns": true, "_count": true, "_wal_segments": true, "_wal_fsync_nanoseconds": true,
	"_heap_alloc_bytes": true, "_gc_pause_nanoseconds": true, "_gc_cycles": true, "_checkpoint_nanoseconds": true,
	"meta.json": true,
	"NGT_UQ":    true, "NLT_UQ": true, "LE_OS": true, "PREFETCHNTA": true, "KMOVB": true, "UCOMISD": true, "SETCC": true,
}

// TestDesignNamesExist holds DESIGN.md to the tree, as
// TestExportedSurface holds the public surface: every backquoted span
// of the shape of a Go identifier, optionally qualified (`point.Queue`,
// `Rows.At`, `stats.Cost.Busy`) and optionally called (`Close()`), must
// name something the tree's .go or .s files hold, so a renamed or
// deleted name fails here and not at the next rewrite of the document.
// A name resolves (treeIndex.has) as one of:
//   - the whole of a string literal: a metric, workload or error code;
//   - a file or directory of the tree, by base name (`runner.go`,
//     `skyserved`);
//   - a bare identifier that occurs outside comments, or a word of the
//     assembly outside its comments (an instruction);
//   - `pkg.Name` declared at the package level of a package of that
//     name, or a TEXT symbol of its assembly;
//   - `Type.Name`, a method or field of a type of that name, or
//     `x.Name`, a selector the code writes (`sort.Slice`, `ctx.Err`),
//     each further part a method or field some code declares or
//     selects (`pkg.Type.Name` the same).
//
// designNotGo lists the few words that are none of these. Fenced code
// blocks are examples and are not read.
func TestDesignNamesExist(t *testing.T) {
	tree := indexTree(t)
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	shape := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	fenced := false
	for n, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			name := strings.TrimSuffix(m[1], "()")
			if shape.MatchString(m[1]) && !designNotGo[name] && !tree.has(name) {
				t.Errorf("DESIGN.md:%d names `%s`, which no .go or .s file holds", n+1, name)
			}
		}
	}
}

// TestOneKernelSwitch holds the kernels' one switch to internal/point:
// no non-test file outside it reads or flips the switch
// (point.VectorBodies, point.SetVectorBodies), asks what the CPU runs
// (point.HasAVX512BW) or names an assembly body (a TEXT symbol of the
// package's .s files). Each kernel question then has one entry point in
// internal/point, and no caller knows which body answers it. Tests may
// flip the switch between runs.
func TestOneKernelSwitch(t *testing.T) {
	tree := indexTree(t)
	banned := []string{"point.VectorBodies", "point.HasAVX512BW", "point.SetVectorBodies"}
	for sym := range tree.text {
		if strings.HasPrefix(sym, "point.") {
			banned = append(banned, sym)
		}
	}
	var found []string
	for _, name := range banned {
		for _, at := range tree.uses[name] {
			if !strings.HasPrefix(at, "internal/point/") && !strings.Contains(at, "_test.go:") {
				found = append(found, fmt.Sprintf("%s names %s", at, name))
			}
		}
	}
	slices.Sort(found)
	for _, f := range found {
		t.Errorf("%s outside internal/point", f)
	}
}

// treeIndex is what the tree's files hold, as TestDesignNamesExist
// resolves names against it.
type treeIndex struct {
	idents  map[string]bool     // identifiers outside comments; assembly words outside comments
	strs    map[string]bool     // string literals, unquoted
	files   map[string]bool     // file base names
	pkgs    map[string]bool     // package names
	decls   map[string]bool     // "pkg.Name": package-level declarations and assembly TEXT symbols
	text    map[string]bool     // "pkg.Name": assembly TEXT symbols
	members map[string]bool     // "Type.Name" for every method and field, "x.Name" for every selector on an identifier x; ".Name" for any of them
	uses    map[string][]string // "x.Name" for every selector on an identifier x: the file:line of each
}

// has reports whether name, one backquoted span without its "()",
// resolves in the tree (TestDesignNamesExist).
func (tr *treeIndex) has(name string) bool {
	if tr.strs[name] || tr.files[name] {
		return true
	}
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		return tr.idents[name]
	}
	if tr.pkgs[parts[0]] && tr.decls[parts[0]+"."+parts[1]] {
		if len(parts) == 2 {
			return true
		}
		parts = parts[1:]
	}
	if !tr.members[parts[0]+"."+parts[1]] {
		return false
	}
	for _, p := range parts[2:] {
		if !tr.members["."+p] {
			return false
		}
	}
	return true
}

// indexTree parses every .go file of the repository (the loadbench
// module included) and reads every .s file, skipping testdata and
// hidden directories.
func indexTree(t *testing.T) *treeIndex {
	tr := &treeIndex{map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string][]string{}}
	fset := token.NewFileSet()
	dirPkg := map[string]string{}
	var asm []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		tr.files[e.Name()] = true
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".s":
			asm = append(asm, path)
		case ".go":
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dirPkg[filepath.Dir(path)] = f.Name.Name
			tr.add(fset, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`^TEXT\s+·([A-Za-z_][A-Za-z0-9_]*)`)
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	for _, path := range asm {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			line, _, _ = strings.Cut(line, "//")
			for _, w := range word.FindAllString(line, -1) {
				tr.idents[w] = true
			}
			if m := text.FindStringSubmatch(line); m != nil {
				sym := dirPkg[filepath.Dir(path)] + "." + m[1]
				tr.decls[sym], tr.text[sym] = true, true
			}
		}
	}
	return tr
}

// add records f's identifiers, string literals and selectors, its
// package-level declarations, and the methods and fields of its
// package-level types.
func (tr *treeIndex) add(fset *token.FileSet, f *ast.File) {
	pkg := f.Name.Name
	tr.pkgs[pkg] = true
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			tr.idents[n.Name] = true
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				tr.strs[s] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				sel := x.Name + "." + n.Sel.Name
				tr.members[sel] = true
				at := fset.Position(n.Pos())
				tr.uses[sel] = append(tr.uses[sel], fmt.Sprintf("%s:%d", at.Filename, at.Line))
			}
			tr.members["."+n.Sel.Name] = true
		}
		return true
	})
	member := func(typ, name string) {
		tr.members[typ+"."+name], tr.members["."+name] = true, true
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			if fn.Recv == nil {
				tr.decls[pkg+"."+fn.Name.Name] = true
			} else if typ := typeName(fn.Recv.List[0].Type); typ != "" {
				member(typ, fn.Name.Name)
			}
			continue
		}
		for _, s := range d.(*ast.GenDecl).Specs {
			switch s := s.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					tr.decls[pkg+"."+id.Name] = true
				}
			case *ast.TypeSpec:
				tr.decls[pkg+"."+s.Name.Name] = true
				var fields *ast.FieldList
				switch typ := s.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				if fields == nil {
					continue
				}
				for _, fl := range fields.List {
					for _, id := range fl.Names {
						member(s.Name.Name, id.Name)
					}
					if len(fl.Names) == 0 {
						if typ := typeName(fl.Type); typ != "" {
							member(s.Name.Name, typ)
						}
					}
				}
			}
		}
	}
}

// typeName returns the type name of a method receiver or an embedded
// field: T, *T, T[P] or pkg.T.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
