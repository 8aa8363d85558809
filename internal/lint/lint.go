// Package lint is the repo's determinism & hot-path contract checker: a
// suite of go/analysis analyzers that turn the invariants every engine
// PR has so far defended only at runtime — golden equivalence matrices,
// allocation budgets — into machine-checked properties of the source.
//
// The contracts, one analyzer each (see DESIGN.md "Invariants as
// analyzers" for the full rationale):
//
//   - detrand: results must be a pure function of (seed, partition), so
//     all randomness flows through engine.SubSeed / engine.FastRand
//     substreams. Calling math/rand package-level functions (the global
//     source) or constructors (rand.New, rand.NewSource) anywhere in
//     non-test code is flagged; *rand.Rand VALUES passed in from a
//     seeded stream are fine.
//   - mapiter: `for range` over a map in a deterministic package is
//     iteration-order nondeterminism waiting to reach a golden. Flagged
//     unless the site is annotated with a sorted-keys justification.
//   - hotalloc: inside functions marked `//det:hotpath`, constructs
//     that allocate per call (closure literals, map/slice composite
//     literals, make/new, fmt calls, append to an unsized local slice)
//     are flagged — the static counterpart of
//     scripts/check_alloc_budget.sh.
//   - timenow: wall-clock reads (time.Now, time.Since) in library
//     packages make results machine-dependent; they belong in tests,
//     benchmarks, and CLI reporting (package main) only.
//
// Sanctioned exceptions carry a `//lint:ignore <analyzer> <reason>`
// directive with a mandatory justification, checked by the detdirective
// analyzer (see directives.go for the grammar).
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// AnalyzerNames lists every analyzer in the suite, in the order they are
// registered. detdirective is part of the suite (it validates the
// directive grammar itself) but is not a valid target for an ignore
// directive.
func AnalyzerNames() []string {
	return []string{"detrand", "mapiter", "hotalloc", "timenow"}
}

// All returns the full suite, directives checker included — the list
// cmd/detlint registers with unitchecker.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Directives,
		DetRand,
		MapIter,
		HotAlloc,
		TimeNow,
	}
}

// isTestFile reports whether the file enclosing pos is a _test.go file.
// Analyzers see test files when vet analyzes a package's test variant;
// every contract here is about shipped engine code, so test files are
// uniformly out of scope.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// deterministicScope reports whether the package under analysis is part
// of the deterministic engine surface that mapiter polices. The engine
// tree is everything under repro/internal/ except the reporting layers
// (experiments renders tables, metrics is measurement plumbing) — those
// still ban wall-clock and unseeded randomness, but a map range that
// feeds a sorted table is routine there. Fixture packages under
// internal/lint/testdata use single-element paths and are always in
// scope so the golden suites can exercise the analyzers.
func deterministicScope(path string) bool {
	switch {
	case path == "repro":
		return true
	case strings.HasPrefix(path, "repro/internal/"):
		switch strings.TrimPrefix(path, "repro/internal/") {
		case "experiments", "metrics", "lint", "lint/linttest":
			return false
		}
		return true
	case !strings.Contains(path, "/") && !strings.Contains(path, "."):
		// Single-element path: a linttest fixture package.
		return true
	}
	return false
}

// report emits diag for analyzer a at pos unless a lint:ignore directive
// suppresses it. Every analyzer in the suite reports through this
// helper, which is what makes the directive grammar uniform.
func report(pass *analysis.Pass, ix *Index, pos token.Pos, format string, args ...any) {
	if ix.Suppressed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// funcHasHotpathMarker reports whether a function declaration carries
// the //det:hotpath marker in its doc comment.
func funcHasHotpathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//det:hotpath" || strings.HasPrefix(c.Text, "//det:hotpath ") {
			return true
		}
	}
	return false
}
