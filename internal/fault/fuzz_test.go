package fault

import (
	"reflect"
	"testing"
)

// FuzzParse throws arbitrary strings at the plan grammar — the decode
// boundary behind visserve -fault and every chaos repro recipe. It never
// panics, and a plan it accepts survives its own canonical form:
// Parse(p.String()) is p.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"seed=42;analyzer.eqset.split=p=0.25",
		"seed=-7;analyzer.eqset.migrate=p=0.1,max=3;server.worker.panic=every=1,max=1,arg=5",
		"seed=9;analyzer.eqset.split=every=2,after=1;trace.invalidate=p=1",
		"seed=x",
		"trace.invalidate=p=1;trace.invalidate=p=1",
		"seed=1;seed=2;trace.invalidate=p=1", // was accepted, and the last seed won
		"seed=1;sched.cache.bypass=p=0.25",
		" seed=3 ; trace.invalidate=p=1e-3,after=2 ;; server.worker.panic=every=4,arg=-1 ",
		"trace.invalidate=p=NaN", // was accepted, and printed as a rule with no clauses
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q is rejected: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("Parse(%q) = %+v, but Parse(%q) = %+v", s, p, p.String(), again)
		}
	})
}
