// Command experiments regenerates every reproduction experiment (E1–E20)
// and renders the results as markdown — the generator for the full
// experiment report.
//
//	experiments                  # run everything, print markdown to stdout
//	experiments -only E15        # run one section by ID
//	experiments -only E4,E8,E17  # re-run a subset without the full suite
//	experiments -quick           # reduced scale
//	experiments -o report.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	only := flag.String("only", "", "comma-separated section IDs to run (e.g. E15 or E4,E8); empty = all")
	quick := flag.Bool("quick", false, "reduced scale (fewer seeds, smaller sweeps)")
	out := flag.String("o", "", "write markdown to this file instead of stdout")
	trace := flag.String("trace", "", "write a JSONL observability trace of the instrumented sections (E18) to this file; report bytes are identical with or without it")
	phaseMetrics := flag.Bool("phase-metrics", false, "print the instrumented sections' per-phase timing and counter tables to stderr after the run")
	pprofLabels := flag.Bool("pprof-labels", false, "attach pprof phase labels to instrumented runs so CPU profiles attribute samples to engine phases")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	// The trace sink is validated before anything runs: a bad path must
	// not discard a long experiment session's trace at the end.
	var tw *obs.TraceWriter
	var traceFile *os.File
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cannot write -trace %q: %v\n", *trace, err)
			os.Exit(2)
		}
		traceFile = f
		tw = obs.NewTraceWriter(f)
	}
	if tw != nil || *phaseMetrics || *pprofLabels {
		cfg.Obs = obs.NewProbe(obs.Config{Trace: tw, PprofLabels: *pprofLabels})
	}

	selected, err := selectSections(experiments.Sections(), *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	var secs []experiments.Section
	for _, f := range selected {
		secs = append(secs, f(cfg))
	}

	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Reproduction of *Self-Similar Algorithms for Dynamic Distributed\n")
	b.WriteString("Systems* (Chandy & Charpentier, ICDCS 2007). The paper has no\n")
	b.WriteString("quantitative evaluation section; its three figures are counterexample /\n")
	b.WriteString("illustration diagrams, reproduced here as machine-checked artifacts\n")
	b.WriteString("(E1–E3), followed by measurable versions of every quantitative claim\n")
	b.WriteString("made in prose (E4–E12). See DESIGN.md for the experiment index.\n\n")
	b.WriteString(fmt.Sprintf("Generated by `go run ./cmd/experiments` (seeds per data point: %d).\n\n", cfg.Seeds))

	b.WriteString("## Summary\n\n")
	b.WriteString("| experiment | paper's claim holds? |\n|---|---|\n")
	allHold := true
	for _, s := range secs {
		verdict := "✓ yes"
		if !s.ShapeHolds {
			verdict = "✗ NO"
			allHold = false
		}
		b.WriteString(fmt.Sprintf("| %s — %s | %s |\n", s.ID, s.Title, verdict))
	}
	b.WriteString("\n")

	for _, s := range secs {
		b.WriteString(fmt.Sprintf("## %s — %s\n\n**Paper's claim.** %s\n\n%s\n\n", s.ID, s.Title, s.Claim, s.Body))
		if s.ShapeHolds {
			b.WriteString("**Verdict.** The claim's shape holds in our reproduction.\n\n")
		} else {
			b.WriteString("**Verdict.** The claim's shape DOES NOT hold — see body.\n\n")
		}
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments, all claims hold: %v)\n", *out, len(secs), allHold)
	} else {
		fmt.Print(b.String())
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing -trace %q: %v\n", *trace, err)
			os.Exit(1)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: closing -trace %q: %v\n", *trace, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote trace %s\n", *trace)
	}
	if *phaseMetrics && cfg.Obs != nil {
		// Stderr: stdout (or -o) carries the report only, so enabling
		// metrics changes no report bytes.
		rep := cfg.Obs.Report()
		fmt.Fprintf(os.Stderr, "\nphase timing (instrumented sections):\n%s\ncounters:\n%s",
			rep.PhaseTable(), rep.CounterTable())
	}
	if !allHold {
		os.Exit(1)
	}
}

// selectSections resolves the -only filter against the section list:
// it takes section IDs ("E15", case-insensitive, comma separated) and
// keeps report order (E1…E20) regardless of how the filter lists them.
// An unknown ID is an error.
func selectSections(all []func(experiments.Config) experiments.Section, only string) ([]func(experiments.Config) experiments.Section, error) {
	if only == "" {
		return all, nil
	}
	want := map[int]bool{}
	for _, raw := range strings.Split(only, ",") {
		id := strings.ToUpper(strings.TrimSpace(raw))
		if id == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(id, "E%d", &n); err != nil || n < 1 || n > len(all) || fmt.Sprintf("E%d", n) != id {
			return nil, fmt.Errorf("-only: unknown section %q (want E1–E%d)", raw, len(all))
		}
		want[n] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-only: no sections named")
	}
	var out []func(experiments.Config) experiments.Section
	for i, f := range all {
		if want[i+1] {
			out = append(out, f)
		}
	}
	return out, nil
}
