package wire

import (
	"sort"

	"visibility"
)

// Env resolves wire references against one runtime's declared state and
// applies workloads to it. A serving session owns one Env; successive
// batches accumulate declarations into the same namespace, so a batch with
// no region declarations can launch against regions declared earlier (or
// restored from a checkpoint).
//
// Env is not safe for concurrent use: like the Runtime it wraps, it is
// driven by one goroutine at a time (in the analysis service, the request
// holding the session lock), and the exported methods are that owner's
// entry points.
type Env struct {
	rt       *visibility.Runtime
	names    scope
	accesses []visibility.Access // a launch's, rebuilt for each
	after    []visibility.Future // a launch's, rebuilt for each
}

// NewEnv creates an empty environment over rt.
func NewEnv(rt *visibility.Runtime) *Env {
	return &Env{rt: rt, names: make(scope)}
}

// EnvFromRestore builds an environment over a restored runtime, adopting
// every root region (and its named partitions) so wire references resolve
// against the checkpointed state.
func EnvFromRestore(rt *visibility.Runtime, roots map[string]*visibility.Region) (*Env, error) {
	e := NewEnv(rt)
	for _, r := range roots {
		if err := e.Adopt(r); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Adopt registers an existing root region and its partitions into the
// environment's namespace.
func (e *Env) Adopt(r *visibility.Region) error {
	if err := e.names.free(r.Name()); err != nil {
		return err
	}
	root := &entry{kind: "region", name: r.Name(), fields: make(map[string]bool), region: r}
	root.root = root
	for _, f := range r.Fields() {
		root.fields[f] = true
	}
	e.names[root.name] = root
	for _, p := range r.Partitions() {
		name := p.PartitionName()
		if err := e.names.free(name); err != nil {
			return err
		}
		e.names[name] = &entry{kind: "partition", name: name, root: root, pieces: p.Len(), part: p}
	}
	return nil
}

// Region returns the declared root region with the given name, or nil.
func (e *Env) Region(name string) *visibility.Region {
	if r := e.names[name]; r != nil {
		return r.region
	}
	return nil
}

// Regions returns the declared root regions, sorted by name.
func (e *Env) Regions() []*visibility.Region {
	var out []*visibility.Region
	for _, r := range e.names {
		if r.region != nil {
			out = append(out, r.region)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// CheckError is Run's refusal of a workload that fails the check.
type CheckError struct{ Err error }

func (e *CheckError) Error() string { return e.Err.Error() }
func (e *CheckError) Unwrap() error { return e.Err }

// Apply is Run of wl, which it checks in full.
func (e *Env) Apply(wl *Workload) ([]visibility.Future, error) {
	return e.Run(&Batch{Workload: wl})
}

// Run finishes the plan b's check made against the session (see
// plan.finish) and only then runs it: the declarations in order, then the
// launches, whose futures it returns. A batch whose plan a Run has taken
// already, or that has none, it checks in full first. Nothing after the
// finish can fail, so a rejected workload, a *CheckError, leaves the
// runtime and the namespace exactly as it found them.
func (e *Env) Run(b *Batch) ([]visibility.Future, error) {
	p, err := b.plan, error(nil)
	b.plan = nil
	if p == nil {
		p, err = check(b.Workload)
	}
	if err == nil {
		err = p.finish(b.Workload, e.names)
	}
	if err != nil {
		return nil, &CheckError{err}
	}
	for _, declare := range p.declare {
		declare(e.rt)
	}
	for name, decl := range p.own {
		e.names[name] = decl
	}
	futs := make([]visibility.Future, 0, len(p.tasks))
	for i := range p.tasks {
		tp := &p.tasks[i]
		spec := tp.spec(e.accesses[:0])
		e.after = e.after[:0]
		for _, a := range tp.after {
			e.after = append(e.after, futs[a])
		}
		e.accesses, spec.After = spec.Accesses, e.after
		futs = append(futs, e.rt.Launch(spec))
	}
	return futs, nil
}
