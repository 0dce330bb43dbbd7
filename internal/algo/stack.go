package algo

import (
	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/obs"
	"visibility/internal/region"
)

// Spec describes one analysis stack: a registered algorithm, optionally
// wrapped by the autotracer. It is the only description of a stack — the
// runtime, the experiment harness and the service all check, build and
// name their analyzers through it.
type Spec struct {
	// Algorithm is a registry name; empty selects "raycast".
	Algorithm string
	// AutoTrace wraps the algorithm in an autotrace.Auto, which finds
	// repeating sections of the launch stream and replays them.
	AutoTrace bool
}

// Check returns s with the default algorithm filled in, or the reason s
// does not describe a stack.
func (s Spec) Check() (Spec, error) {
	if s.Algorithm == "" {
		s.Algorithm = "raycast"
	}
	_, err := Lookup(s.Algorithm)
	return s, err
}

// Suffix is what the stack's autotracer adds to a configuration name:
// "_auto" ("raycast_dcr_auto").
func (s Spec) Suffix() string {
	if s.AutoTrace {
		return "_auto"
	}
	return ""
}

// Stack is a built analysis stack: the outermost analyzer to drive, plus
// the autotracer when present (nil when absent).
type Stack struct {
	Analyzer core.Analyzer
	Auto     *autotrace.Auto
}

// Build assembles the stack over tree. It panics on a spec that Check
// rejects.
func (s Spec) Build(tree *region.Tree, opts core.Options) *Stack {
	s, err := s.Check()
	if err != nil {
		panic(err)
	}
	newAn, _ := Lookup(s.Algorithm)
	st := &Stack{Analyzer: newAn(tree, opts)}
	if opts.Spans != nil {
		st.Analyzer = &spanned{Analyzer: st.Analyzer, name: st.Analyzer.Name() + ".analyze", spans: opts.Spans}
	}
	if s.AutoTrace {
		st.Auto = autotrace.New(st.Analyzer, opts)
		st.Analyzer = st.Auto
	}
	return st
}

// spanned records one "<name>.analyze" span, category "analysis", around
// each Analyze of the analyzer it wraps. Build places it beneath the
// autotracer, so a replayed launch records none.
type spanned struct {
	core.Analyzer
	name  string // built once rather than per launch
	spans *obs.Buffer
}

func (s *spanned) Analyze(t *core.Task) *core.Result {
	defer s.spans.Begin(s.name, "analysis").End()
	return s.Analyzer.Analyze(t)
}
