package wire

import (
	"fmt"

	"visibility"
	"visibility/internal/index"
	"visibility/internal/privilege"
)

// Env resolves wire references against one runtime's declared state and
// applies workloads to it. A serving session owns one Env; successive
// batches accumulate declarations into the same namespace, so a batch with
// no region declarations can launch against regions declared earlier (or
// restored from a checkpoint).
//
// Env is not safe for concurrent use — like the Runtime it wraps, all
// calls must come from one goroutine.
// Env's tables are read and written by whichever single goroutine owns
// the environment (in the analysis service, the session worker); the
// exported methods are that owner's entry points.
//
// confined to env-owner
type Env struct {
	// confined to env-owner
	rt *visibility.Runtime
	// confined to env-owner
	regions map[string]*visibility.Region
	// confined to env-owner
	parts map[string]*visibility.Partition
}

// NewEnv creates an empty environment over rt.
func NewEnv(rt *visibility.Runtime) *Env {
	return &Env{
		rt:      rt,
		regions: make(map[string]*visibility.Region),
		parts:   make(map[string]*visibility.Partition),
	}
}

// EnvFromRestore builds an environment over a restored runtime, adopting
// every root region (and its named partitions) so wire references resolve
// against the checkpointed state.
//
// confined to env-owner
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
//
// confined to env-owner
func (e *Env) Adopt(r *visibility.Region) error {
	if err := e.claim(r.Name()); err != nil {
		return err
	}
	e.regions[r.Name()] = r
	for _, p := range r.Partitions() {
		if err := e.claim(p.PartitionName()); err != nil {
			return err
		}
		e.parts[p.PartitionName()] = p
	}
	return nil
}

// claim checks a name is free in the shared region/partition namespace.
func (e *Env) claim(name string) error {
	if _, dup := e.regions[name]; dup {
		return fmt.Errorf("wire: name %q already declared as a region", name)
	}
	if _, dup := e.parts[name]; dup {
		return fmt.Errorf("wire: name %q already declared as a partition", name)
	}
	return nil
}

// Region returns the declared root region with the given name, or nil.
//
// confined to env-owner
func (e *Env) Region(name string) *visibility.Region { return e.regions[name] }

// Regions returns the declared root region names (unsorted map iteration
// does not escape: callers sort or look up by name).
//
// confined to env-owner
func (e *Env) Regions() []*visibility.Region {
	out := make([]*visibility.Region, 0, len(e.regions))
	for _, r := range e.regions {
		out = append(out, r)
	}
	return out
}

// resolve maps a wire region reference to a region in the environment.
func (e *Env) resolve(ref string) (*visibility.Region, error) {
	base, idx, hasIdx, err := parseRef(ref)
	if err != nil {
		return nil, err
	}
	if hasIdx {
		p, ok := e.parts[base]
		if !ok {
			return nil, fmt.Errorf("dangling reference %q", ref)
		}
		if idx >= p.Len() {
			return nil, fmt.Errorf("piece %d outside partition %q (len %d)", idx, base, p.Len())
		}
		return p.Sub(idx), nil
	}
	r, ok := e.regions[base]
	if !ok {
		return nil, fmt.Errorf("dangling reference %q", ref)
	}
	return r, nil
}

// Apply validates wl, applies its declarations, and launches its tasks,
// returning the futures in launch order. Apply is all-or-nothing up to the
// first launch: every declaration name is checked against the session
// namespace and every task reference is resolved before anything runs, so
// a rejected workload leaves the runtime exactly as it found it.
//
// confined to env-owner
func (e *Env) Apply(wl *Workload) ([]visibility.Future, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	// Phase 1: no declared name may collide with session state.
	for i := range wl.Regions {
		r := &wl.Regions[i]
		if err := e.claim(r.Name); err != nil {
			return nil, err
		}
		for j := range r.Partitions {
			if err := e.claim(r.Partitions[j].Name); err != nil {
				return nil, err
			}
		}
	}
	// Phase 2: declare regions and partitions.
	for i := range wl.Regions {
		if err := e.declare(&wl.Regions[i]); err != nil {
			return nil, err
		}
	}
	// Phase 3: resolve every task fully before launching any, so a bad
	// batch launches nothing.
	specs := make([]visibility.TaskSpec, 0, len(wl.Tasks))
	afters := make([][]int, 0, len(wl.Tasks))
	for i := range wl.Tasks {
		spec, err := e.taskSpec(&wl.Tasks[i])
		if err != nil {
			return nil, fmt.Errorf("wire: task %q: %v", wl.Tasks[i].Name, err)
		}
		specs = append(specs, spec)
		afters = append(afters, wl.Tasks[i].After)
	}
	// Phase 4: launch.
	futs := make([]visibility.Future, 0, len(specs))
	for i, spec := range specs {
		for _, a := range afters[i] {
			spec.After = append(spec.After, futs[a])
		}
		futs = append(futs, e.rt.Launch(spec))
	}
	return futs, nil
}

// declare materializes one region declaration: space, fields, initial
// contents, partitions in order.
func (e *Env) declare(rd *RegionDecl) error {
	space, err := index.FromRows(rd.Dim, rd.Space)
	if err != nil {
		return fmt.Errorf("wire: region %q: %v", rd.Name, err)
	}
	r := e.rt.CreateRegion(rd.Name, space, rd.Fields...)
	e.regions[rd.Name] = r
	// Deterministic init order: iterate declared fields, not the map.
	for _, f := range rd.Fields {
		spec, ok := rd.Init[f]
		if !ok {
			continue
		}
		k, err := buildKernel(spec)
		if err != nil {
			return fmt.Errorf("wire: region %q: init %q: %v", rd.Name, f, err)
		}
		r.Init(f, func(p visibility.Point) float64 { return k(p, 0) })
	}
	for i := range rd.Partitions {
		if err := e.declarePartition(&rd.Partitions[i], r, rd); err != nil {
			return err
		}
	}
	return nil
}

func (e *Env) declarePartition(pd *PartitionDecl, r *visibility.Region, rd *RegionDecl) error {
	// sibling resolves an operand to an earlier partition of the same
	// region; Validate guaranteed existence and region membership.
	sibling := func(name string) *visibility.Partition { return e.parts[name] }
	var p *visibility.Partition
	switch pd.Kind {
	case "equal":
		p = r.PartitionEqual(pd.Name, pd.Pieces)
	case "explicit":
		pieces := make([]visibility.IndexSpace, 0, len(pd.Spaces))
		for i, rows := range pd.Spaces {
			sp, err := index.FromRows(rd.Dim, rows)
			if err != nil {
				return fmt.Errorf("wire: partition %q piece %d: %v", pd.Name, i, err)
			}
			pieces = append(pieces, sp)
		}
		p = r.Partition(pd.Name, pieces)
	case "image", "preimage":
		rel, err := buildRelation(pd.Relation)
		if err != nil {
			return fmt.Errorf("wire: partition %q: %v", pd.Name, err)
		}
		relFn := func(pt visibility.Point) []visibility.Point { return rel(pt) }
		if pd.Kind == "image" {
			p = r.PartitionImage(pd.Name, sibling(pd.Source), relFn)
		} else {
			p = r.PartitionPreimage(pd.Name, sibling(pd.Source), relFn)
		}
	case "bycolor":
		color, err := buildColor(pd.Color)
		if err != nil {
			return fmt.Errorf("wire: partition %q: %v", pd.Name, err)
		}
		p = r.PartitionByColor(pd.Name, pd.Pieces, func(pt visibility.Point) int { return color(pt) })
	case "minus":
		p = sibling(pd.Left).Minus(pd.Name, sibling(pd.Right))
	default:
		return fmt.Errorf("wire: partition %q: unknown kind %q", pd.Name, pd.Kind)
	}
	e.parts[pd.Name] = p
	return nil
}

// taskSpec resolves one task declaration against the environment —
// repeating the reference checks Validate skips for batches — and builds
// the per-access kernel dispatch.
func (e *Env) taskSpec(td *TaskDecl) (visibility.TaskSpec, error) {
	var zero visibility.TaskSpec
	if len(td.Accesses) == 0 {
		return zero, fmt.Errorf("needs at least one access")
	}
	accs := make([]visibility.Access, len(td.Accesses))
	writes := make([]KernelFunc, len(td.Accesses))
	reduces := make([]KernelFunc, len(td.Accesses))
	ops := make([]visibility.ReduceOp, len(td.Accesses))
	var first *visibility.Region
	for ai := range td.Accesses {
		a := &td.Accesses[ai]
		reg, err := e.resolve(a.Region)
		if err != nil {
			return zero, fmt.Errorf("access %d: %v", ai, err)
		}
		if !reg.HasField(a.Field) {
			return zero, fmt.Errorf("access %d: region %q has no field %q", ai, reg.Name(), a.Field)
		}
		if first == nil {
			first = reg
		} else if !first.SameTree(reg) {
			return zero, fmt.Errorf("access %d: mixes region trees (one tree per task)", ai)
		}
		var k KernelFunc
		if a.Kernel != nil {
			if k, err = buildKernel(a.Kernel); err != nil {
				return zero, fmt.Errorf("access %d: %v", ai, err)
			}
		}
		switch a.Privilege {
		case "read":
			if a.Kernel != nil {
				return zero, fmt.Errorf("access %d: read access carries a kernel", ai)
			}
			accs[ai] = visibility.Read(reg, a.Field)
		case "write":
			accs[ai] = visibility.Write(reg, a.Field)
			writes[ai] = k
		case "reduce":
			op, ok := reduceOps[a.Op]
			if !ok {
				return zero, fmt.Errorf("access %d: unknown reduction op %q", ai, a.Op)
			}
			accs[ai] = visibility.Reduce(op, reg, a.Field)
			reduces[ai] = k
			ops[ai] = op
		default:
			return zero, fmt.Errorf("access %d: unknown privilege %q", ai, a.Privilege)
		}
	}
	return visibility.TaskSpec{
		Name:     td.Name,
		Accesses: accs,
		Kernel: visibility.Kernel{
			Write: func(ai int, p visibility.Point, in float64) float64 {
				if writes[ai] == nil {
					return in
				}
				return writes[ai](p, in)
			},
			Reduce: func(ai int, p visibility.Point) float64 {
				if reduces[ai] == nil {
					return privilege.Identity(ops[ai])
				}
				return reduces[ai](p, 0)
			},
		},
	}, nil
}
