// Package linttest is the repo's analysistest: it runs a go/analysis
// analyzer over fixture packages under testdata/src and checks the
// diagnostics against `// want` comments.
//
// The real golang.org/x/tools/go/analysis/analysistest is not part of
// the Go distribution's vendored x/tools (it drags in go/packages), and
// this repo vendors exactly the distribution's subset so the analyzer
// framework needs no network fetch — see
// third_party/golang.org/x/tools/README.vendored.md. This harness
// reimplements the slice of analysistest the suite needs:
//
//   - fixture layout testdata/src/<pkg>/*.go, each fixture package
//     standalone (it imports the standard library only);
//   - stdlib imports type-checked from $GOROOT/src via the source
//     importer (no compiled export data needed);
//   - the analyzer's Requires DAG (inspect, the directive index) run in
//     dependency order, with only the analyzer under test reporting;
//   - `// want `+"`regex`"+` expectations matched by line: every
//     diagnostic must be expected and every expectation must fire.
//
// Analyzer facts are not supported (no analyzer in the suite uses
// them).
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads each named fixture package from dir (the testdata root,
// typically "testdata") and applies a to it, failing t on any
// mismatch between reported diagnostics and // want expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, dir, a, pkg)
	}
}

func runOne(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	ld := newLoader(filepath.Join(dir, "src"))
	info, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("%s: loading fixture %s: %v", a.Name, pkgPath, err)
	}

	var diags []analysis.Diagnostic
	if err := runAnalyzer(a, info, ld.fset, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	}, make(map[*analysis.Analyzer]any)); err != nil {
		t.Fatalf("%s: running on %s: %v", a.Name, pkgPath, err)
	}

	checkExpectations(t, a.Name, ld.fset, info.files, diags)
}

// pkgInfo is one type-checked fixture package.
type pkgInfo struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader loads fixture packages by path, type-checking their imports
// with the source importer (stdlib from $GOROOT/src).
type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
	}
}

func (ld *loader) load(path string) (*pkgInfo, error) {
	pkgDir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", pkgDir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: ld.std}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &pkgInfo{pkg: pkg, files: files, info: info}, nil
}

// runAnalyzer executes a and its Requires closure over one package,
// reporting only a's own diagnostics through report.
func runAnalyzer(a *analysis.Analyzer, pi *pkgInfo, fset *token.FileSet, report func(analysis.Diagnostic), results map[*analysis.Analyzer]any) error {
	if _, done := results[a]; done {
		return nil
	}
	for _, dep := range a.Requires {
		if err := runAnalyzer(dep, pi, fset, nil, results); err != nil {
			return err
		}
	}
	resultOf := make(map[*analysis.Analyzer]any, len(a.Requires))
	for _, dep := range a.Requires {
		resultOf[dep] = results[dep]
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      pi.files,
		Pkg:        pi.pkg,
		TypesInfo:  pi.info,
		TypesSizes: types.SizesFor("gc", runtime.GOARCH),
		ResultOf:   resultOf,
		Report: func(d analysis.Diagnostic) {
			if report != nil {
				report(d)
			}
		},
	}
	res, err := a.Run(pass)
	if err != nil {
		return fmt.Errorf("%s: %w", a.Name, err)
	}
	if a.ResultType != nil && res != nil {
		results[a] = res
	} else {
		results[a] = nil
	}
	return nil
}

// expectation is one parsed // want regex.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants extracts expectations from the fixture files' comments.
// Grammar (a strict subset of analysistest's): a comment of the form
//
//	// want `regex` `regex` ...
//
// attaches one expectation per regex to the comment's line. Double-
// quoted Go strings are accepted in place of backquoted ones.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := strings.TrimSpace(c.Text[idx+len("// want "):])
				pos := fset.Position(c.Pos())
				for rest != "" {
					var lit, tail string
					switch rest[0] {
					case '`':
						end := strings.Index(rest[1:], "`")
						if end < 0 {
							t.Fatalf("%s: unterminated // want backquote: %s", pos, c.Text)
						}
						lit, tail = rest[1:1+end], rest[end+2:]
					case '"':
						unq, err := strconv.Unquote(rest[:quotedEnd(rest)])
						if err != nil {
							t.Fatalf("%s: bad // want string %q: %v", pos, rest, err)
						}
						lit, tail = unq, rest[quotedEnd(rest):]
					default:
						t.Fatalf("%s: // want expects quoted regexes, got %q", pos, rest)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s: bad // want regex %q: %v", pos, lit, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(tail)
				}
			}
		}
	}
	return out
}

// quotedEnd returns the index just past the closing quote of the
// double-quoted Go string literal at the start of s.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(s)
}

func checkExpectations(t *testing.T, name string, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", name, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: expected diagnostic at %s:%d matching %q, got none", name, filepath.Base(w.file), w.line, w.re)
		}
	}
}
