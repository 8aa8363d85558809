package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// DetRand flags calls to math/rand (and math/rand/v2) PACKAGE-LEVEL
// functions in non-test code. Two distinct failure modes hide behind
// them:
//
//   - the package-global functions (rand.Intn, rand.Float64, rand.Seed,
//     ...) draw from a process-wide source, so results depend on
//     whatever else ran — the direct negation of the results-are-a-
//     function-of-(seed,partition) contract;
//   - the constructors (rand.New, rand.NewSource) mint private streams
//     whose SEEDING is invisible to the engine's substream discipline,
//     and whose lagged-Fibonacci source pays an O(607) rebuild per
//     reseed — the exact bottleneck engine.FastRand was built to remove
//     (>90% of a 10⁵-agent pairwise round before PR 3).
//
// Deterministic code takes a *rand.Rand (or engine.FastRand) value fed
// from an engine.SubSeed substream; METHOD calls on such values are
// allowed. The sanctioned constructor sites (engine.FastRand itself and
// the golden-pinned input streams of the CLIs, experiments and sweep
// workers) carry //lint:ignore detrand directives recording why.
var DetRand = &analysis.Analyzer{
	Name: "detrand",
	Doc: "flag math/rand package-level calls in deterministic code; randomness " +
		"must flow through engine.SubSeed/engine.FastRand substreams",
	Requires: []*analysis.Analyzer{inspect.Analyzer, Directives},
	Run:      runDetRand,
}

func runDetRand(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := pass.ResultOf[Directives].(*Index)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		if isTestFile(pass, n.Pos()) {
			return
		}
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			// Method on a stream value (e.g. rng.Intn): the stream was
			// seeded by whoever built it — that construction site is
			// where the contract is enforced.
			return
		}
		report(pass, ix, call.Pos(),
			"%s.%s draws outside the seeded substream discipline: derive streams via engine.SubSeed/engine.FastRand (or annotate a sanctioned constructor with //lint:ignore detrand <why>)",
			path, fn.Name())
	})
	return nil, nil
}
