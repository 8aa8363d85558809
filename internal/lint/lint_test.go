package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer gets a failing-then-fixed golden fixture: every fixture
// package contains violations (matched by // want), the conforming
// idiom (no diagnostic), and the lint:ignore escape hatch (suppressed,
// so also no diagnostic) — the three behaviours the suite's contract
// promises.

func TestDetRand(t *testing.T)  { linttest.Run(t, "testdata", lint.DetRand, "detrand") }
func TestMapIter(t *testing.T)  { linttest.Run(t, "testdata", lint.MapIter, "mapiter") }
func TestHotAlloc(t *testing.T) { linttest.Run(t, "testdata", lint.HotAlloc, "hotalloc") }
func TestTimeNow(t *testing.T)  { linttest.Run(t, "testdata", lint.TimeNow, "timenow") }

// TestDirectives pins the directive grammar itself: no analyzer name,
// no justification, and unknown analyzer are each diagnostics.
func TestDirectives(t *testing.T) { linttest.Run(t, "testdata", lint.Directives, "directives") }

// TestAllRegistered pins the suite composition cmd/detlint registers.
func TestAllRegistered(t *testing.T) {
	all := lint.All()
	names := make(map[string]bool, len(all))
	for _, a := range all {
		names[a.Name] = true
	}
	for _, want := range append(lint.AnalyzerNames(), "detdirective") {
		if !names[want] {
			t.Errorf("All() is missing analyzer %s", want)
		}
	}
	if len(all) != len(lint.AnalyzerNames())+1 {
		t.Errorf("All() has %d analyzers, want %d", len(all), len(lint.AnalyzerNames())+1)
	}
}
