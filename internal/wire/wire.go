// Package wire defines the versioned JSON wire format for complete
// visibility workloads: region and partition declarations (equal,
// explicit, image, preimage, by-color, minus), task launches with read/
// write/reduce accesses and future dependences, and named kernels,
// relations, and colorings resolved from registries — everything a remote
// client needs to drive a Runtime without shipping code.
//
// The decoder is strict by design: unknown JSON fields, bad privileges,
// malformed rectangles, dangling region references, and unresolvable
// kernel names are errors, never panics, so workload files double as
// replayable corpus inputs (FuzzWireDecode seeds the example workloads).
// Encoding is deterministic (struct field order is fixed and map keys
// sort), and decode→encode→decode is a fixed point. The canonical form is
// compact, since a batch is parsed on every step of a served program; the
// testdata files are its json.Indent, and Decode reads either. One set of
// per-type key tables drives both directions: Decode reads a workload with
// the package's one scanner, which ParseSnapshot shares, and
// AppendWorkload appends one. encoding/json is left only as the escape
// fallback for strings that need one and as both directions' oracle in the
// tests.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"visibility"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
)

// Version is the wire-format version this package reads and writes.
const Version = 1

// Workload is a complete, self-contained unit of work: declarations plus
// launches. A workload with no region declarations is a batch — its task
// references resolve against the regions a session has already declared.
type Workload struct {
	Version int          `json:"version"`
	Name    string       `json:"name,omitempty"`
	Regions []RegionDecl `json:"regions,omitempty"`
	Tasks   []TaskDecl   `json:"tasks,omitempty"`
}

// RegionDecl declares one root region: an index space (encoded as rows of
// 2·dim inclusive bounds, lo/hi interleaved per axis), named fields,
// optional initial contents per field, and derived partitions.
type RegionDecl struct {
	Name       string               `json:"name"`
	Dim        int                  `json:"dim"`
	Space      [][]int64            `json:"space"`
	Fields     []string             `json:"fields"`
	Init       map[string]*FuncSpec `json:"init,omitempty"`
	Partitions []PartitionDecl      `json:"partitions,omitempty"`
}

// PartitionDecl declares one partition of its enclosing region. Kind
// selects the operator; the other fields are kind-specific:
//
//	equal:    Pieces equal contiguous blocks
//	explicit: Spaces, one encoded index space per piece (may alias)
//	image:    Source partition pushed through Relation
//	preimage: points whose image under Relation lands in Source's pieces
//	bycolor:  Pieces buckets of the Color function
//	minus:    pairwise difference Left \ Right
type PartitionDecl struct {
	Name     string      `json:"name"`
	Kind     string      `json:"kind"`
	Pieces   int         `json:"pieces,omitempty"`
	Spaces   [][][]int64 `json:"spaces,omitempty"`
	Source   string      `json:"source,omitempty"`
	Left     string      `json:"left,omitempty"`
	Right    string      `json:"right,omitempty"`
	Relation *FuncSpec   `json:"relation,omitempty"`
	Color    *FuncSpec   `json:"color,omitempty"`
}

// TaskDecl declares one task launch. After lists indices of earlier tasks
// in the same workload whose futures this task waits on (scalar ordering
// dependences, like Legion futures).
type TaskDecl struct {
	Name     string       `json:"name"`
	Accesses []AccessDecl `json:"accesses"`
	After    []int        `json:"after,omitempty"`
}

// AccessDecl declares how the task touches one region's field. Region is a
// reference: a root region name ("cells") or an indexed partition piece
// ("blocks[2]"). Privilege is "read", "write", or "reduce"; Op names the
// reduction operator for reduce accesses. Kernel names the per-point
// function applied for write and reduce accesses (identity when absent);
// read accesses carry no kernel.
type AccessDecl struct {
	Region    string    `json:"region"`
	Field     string    `json:"field"`
	Privilege string    `json:"privilege"`
	Op        string    `json:"op,omitempty"`
	Kernel    *FuncSpec `json:"kernel,omitempty"`
}

// FuncSpec names a registered kernel, relation, or coloring together with
// its numeric arguments.
type FuncSpec struct {
	Name string             `json:"name"`
	Args map[string]float64 `json:"args,omitempty"`
}

// Decode reads one workload from r, compact or indented, rejecting unknown,
// case-folded and repeated fields, trailing data, and every structural
// error Validate covers. What the body repeats is decoded once: equal
// strings share one allocation, specs with byte-identical text share one
// *FuncSpec, args map included, and tasks whose access lists have
// byte-identical text share one slice.
func Decode(r io.Reader) (*Workload, error) {
	b, err := DecodeSized(r, -1)
	if err != nil {
		return nil, err
	}
	return b.Workload, nil
}

// Batch is a decoded workload together with the plan its check made, which
// the first Env.Run finishes against its session instead of checking the
// workload again. The plan cannot ride in the Workload, which must stay
// deeply equal to what encoding/json makes of the same body.
type Batch struct {
	Workload *Workload // read-only: Run does not see a change made after DecodeSized
	plan     *plan     // nil once a Run has taken it
}

// DecodeSized is Decode of a body whose length a header declared (ReadBody),
// into a Batch that carries its check's plan to Env.Run.
func DecodeSized(r io.Reader, declared int64) (*Batch, error) {
	buf := bodies.Get().(*[]byte)
	data, err := readBody(*buf, r, declared)
	defer func() {
		if cap(data) <= 1<<20 {
			*buf = data[:0]
			bodies.Put(buf)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding workload: %w", err)
	}
	s, wl := &scanner{b: data, seen: new(repeats)}, new(Workload)
	workloadFields.read(s, wl)
	if err := s.end(); err != nil {
		return nil, fmt.Errorf("wire: decoding workload: %w", err)
	}
	p, err := check(wl)
	if err != nil {
		return nil, err
	}
	return &Batch{Workload: wl, plan: p}, nil
}

// ReadBody reads r to its end into one buffer of the length a header
// declared (< 0: none, and then the length of a reader that reports one),
// capped at 1 MiB so a lying header reserves no more; the MinRead spare
// bytes take the read that finds the end without a copy.
func ReadBody(r io.Reader, declared int64) ([]byte, error) { return readBody(nil, r, declared) }

// readBody is ReadBody into dst's room when it has enough.
func readBody(dst []byte, r io.Reader, declared int64) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok && declared < 0 {
		declared = int64(l.Len())
	}
	if n := min(max(declared, 0)+bytes.MinRead, 1<<20); int64(cap(dst)) < n {
		dst = make([]byte, 0, n)
	}
	buf := bytes.NewBuffer(dst[:0])
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// bodies recycles Decode's body buffers. Nothing Decode returns is a window
// of the body (the strings are the interner's copies), so the buffer is
// free once Decode returns; one past 1 MiB is left to the collector.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// The key tables define the format both ways, in struct order; an
// omitempty field has an empty test, or is stringKey's with omitempty.

var workloadFields = fields[Workload]{
	intKey("version", func(wl *Workload) *int { return &wl.Version }),
	stringKey("name", true, func(wl *Workload) *string { return &wl.Name }),
	{"regions", func(s *scanner, wl *Workload) { array(s, &wl.Regions, regionFields.read) },
		func(e *encoder, wl *Workload) { list(e, wl.Regions, regionFields.write) },
		func(wl *Workload) bool { return len(wl.Regions) == 0 }},
	{"tasks", func(s *scanner, wl *Workload) { array(s, &wl.Tasks, taskFields.read) },
		func(e *encoder, wl *Workload) { list(e, wl.Tasks, taskFields.write) },
		func(wl *Workload) bool { return len(wl.Tasks) == 0 }},
}

var regionFields = fields[RegionDecl]{
	stringKey("name", false, func(r *RegionDecl) *string { return &r.Name }),
	intKey("dim", func(r *RegionDecl) *int { return &r.Dim }),
	{"space", func(s *scanner, r *RegionDecl) { s.rows(&r.Space) },
		func(e *encoder, r *RegionDecl) { e.rows(&r.Space) }, nil},
	{"fields", func(s *scanner, r *RegionDecl) { array(s, &r.Fields, (*scanner).string) },
		func(e *encoder, r *RegionDecl) { list(e, r.Fields, func(e *encoder, f *string) { e.string(*f) }) }, nil},
	{"init", func(s *scanner, r *RegionDecl) { dict(s, &r.Init, (*scanner).funcSpec) },
		func(e *encoder, r *RegionDecl) { object(e, r.Init, (*encoder).spec) },
		func(r *RegionDecl) bool { return len(r.Init) == 0 }},
	{"partitions", func(s *scanner, r *RegionDecl) { array(s, &r.Partitions, partitionFields.read) },
		func(e *encoder, r *RegionDecl) { list(e, r.Partitions, partitionFields.write) },
		func(r *RegionDecl) bool { return len(r.Partitions) == 0 }},
}

var partitionFields = fields[PartitionDecl]{
	stringKey("name", false, func(p *PartitionDecl) *string { return &p.Name }),
	stringKey("kind", false, func(p *PartitionDecl) *string { return &p.Kind }),
	{"pieces", func(s *scanner, p *PartitionDecl) { s.int(&p.Pieces) },
		func(e *encoder, p *PartitionDecl) { e.int(p.Pieces) },
		func(p *PartitionDecl) bool { return p.Pieces == 0 }},
	{"spaces", func(s *scanner, p *PartitionDecl) { array(s, &p.Spaces, (*scanner).rows) },
		func(e *encoder, p *PartitionDecl) { list(e, p.Spaces, (*encoder).rows) },
		func(p *PartitionDecl) bool { return len(p.Spaces) == 0 }},
	stringKey("source", true, func(p *PartitionDecl) *string { return &p.Source }),
	stringKey("left", true, func(p *PartitionDecl) *string { return &p.Left }),
	stringKey("right", true, func(p *PartitionDecl) *string { return &p.Right }),
	{"relation", func(s *scanner, p *PartitionDecl) { s.funcSpec(&p.Relation) },
		func(e *encoder, p *PartitionDecl) { e.spec(p.Relation) },
		func(p *PartitionDecl) bool { return p.Relation == nil }},
	{"color", func(s *scanner, p *PartitionDecl) { s.funcSpec(&p.Color) },
		func(e *encoder, p *PartitionDecl) { e.spec(p.Color) },
		func(p *PartitionDecl) bool { return p.Color == nil }},
}

var taskFields = fields[TaskDecl]{
	stringKey("name", false, func(t *TaskDecl) *string { return &t.Name }),
	{"accesses", func(s *scanner, t *TaskDecl) { s.accesses(&t.Accesses) },
		func(e *encoder, t *TaskDecl) { list(e, t.Accesses, accessFields.write) }, nil},
	{"after", func(s *scanner, t *TaskDecl) { array(s, &t.After, (*scanner).int) },
		func(e *encoder, t *TaskDecl) { list(e, t.After, func(e *encoder, a *int) { e.int(*a) }) },
		func(t *TaskDecl) bool { return len(t.After) == 0 }},
}

var accessFields = fields[AccessDecl]{
	stringKey("region", false, func(a *AccessDecl) *string { return &a.Region }),
	stringKey("field", false, func(a *AccessDecl) *string { return &a.Field }),
	stringKey("privilege", false, func(a *AccessDecl) *string { return &a.Privilege }),
	stringKey("op", true, func(a *AccessDecl) *string { return &a.Op }),
	{"kernel", func(s *scanner, a *AccessDecl) { s.funcSpec(&a.Kernel) },
		func(e *encoder, a *AccessDecl) { e.spec(a.Kernel) },
		func(a *AccessDecl) bool { return a.Kernel == nil }},
}

var funcSpecFields = fields[FuncSpec]{
	stringKey("name", false, func(f *FuncSpec) *string { return &f.Name }),
	{"args", func(s *scanner, f *FuncSpec) { dict(s, &f.Args, (*scanner).float) },
		func(e *encoder, f *FuncSpec) { object(e, f.Args, (*encoder).arg) },
		func(f *FuncSpec) bool { return len(f.Args) == 0 }},
}

func (s *scanner) row(dst *[]int64)    { array(s, dst, (*scanner).int64) }
func (s *scanner) rows(dst *[][]int64) { array(s, dst, (*scanner).row) }

// funcSpec reads a spec, or takes the one read from the same text: an
// object ends at its own closing brace, so a body that starts with a
// remembered spec's bytes holds that spec, checked when it was first read.
func (s *scanner) funcSpec(dst **FuncSpec) {
	if s.null() {
		return
	}
	for _, r := range s.specs {
		if bytes.HasPrefix(s.b[s.i:], r.text) {
			s.i += len(r.text)
			*dst = r.spec
			return
		}
	}
	start := s.i
	*dst = new(FuncSpec)
	funcSpecFields.read(s, *dst)
	if s.err == nil && len(s.specs) < maxSpecs {
		s.specs = append(s.specs, specText{*dst, s.b[start:s.i]})
	}
}

// --- registries ---------------------------------------------------------

// KernelFunc is a pure per-point function: for write accesses in is the
// current value; for reduce accesses and initial contents in is zero.
type KernelFunc func(p visibility.Point, in float64) float64

// RelationFunc maps a point to related points (image/preimage operands).
type RelationFunc func(p visibility.Point) []visibility.Point

// ColorFunc assigns a point to a partition piece.
type ColorFunc func(p visibility.Point) int

// registry maps names to builders of one function type. The three
// package-level registries are fixed maps of the builtins, only read
// after package initialization.
type registry[T any] struct {
	kind     string // "kernel", "relation" or "color", for messages
	builders map[string]builder[T]
}

type builder[T any] func(args map[string]float64) (T, error)

// build resolves spec's name and applies its builder to the arguments; a
// nil spec is a declaration that needs a function and names none.
func (r *registry[T]) build(spec *FuncSpec) (T, error) {
	var zero T
	if spec == nil {
		return zero, fmt.Errorf("needs a %s", r.kind)
	}
	b := r.builders[spec.Name]
	if b == nil {
		names := make([]string, 0, len(r.builders))
		for k := range r.builders {
			names = append(names, k)
		}
		sort.Strings(names)
		return zero, fmt.Errorf("wire: unknown %s %q (have %v)", r.kind, spec.Name, names)
	}
	return b(spec.Args)
}

// args wraps a FuncSpec's argument map with exact-arity checking: every
// get must name a declared key, and builtin reports keys the builder never
// consumed — an unknown argument is as much an error as a missing one. A
// builder reads each argument once, so counting the hits is enough to know
// every key was consumed; the names say which one was not.
type args struct {
	m     map[string]float64
	names [4]string // consumed so far; no builtin takes more
	used  int
	err   error
}

func (a *args) get(name string) float64 {
	v, ok := a.m[name]
	if ok {
		a.names[a.used] = name
		a.used++
	} else if a.err == nil {
		a.err = fmt.Errorf("missing argument %q", name)
	}
	return v
}

func (a *args) getInt(name string) int64 {
	v := a.get(name)
	if a.err == nil && (math.IsNaN(v) || v != math.Trunc(v)) {
		a.err = fmt.Errorf("argument %q = %v is not an integer", name, v)
	}
	return int64(v)
}

// builtin wraps build, which reads its arguments through a; a missing,
// non-integer or unconsumed argument rejects the spec ahead of build's own
// verdict on the values.
func builtin[T any](build func(a *args) (T, error)) builder[T] {
	return func(m map[string]float64) (T, error) {
		a := &args{m: m}
		f, err := build(a)
		if a.err != nil {
			return f, a.err
		}
		if a.used != len(m) {
			var unknown []string
			for k := range m {
				if !slices.Contains(a.names[:a.used], k) {
					unknown = append(unknown, k)
				}
			}
			sort.Strings(unknown) // one message whatever the map's order
			return f, fmt.Errorf("unknown argument %q", unknown[0])
		}
		return f, err
	}
}

// maxRadius bounds ring and window: a relation returns 2·radius points per
// call, so the radius sizes an allocation for every point it is applied to.
const maxRadius = 1 << 16

// neighbors is the 1-D relation p → p±1 … p±radius, wrapped into
// [0, modulo) when modulo > 0.
func neighbors(radius, modulo int64) (RelationFunc, error) {
	if radius < 1 || radius > maxRadius {
		return nil, fmt.Errorf("radius %d outside [1, %d]", radius, maxRadius)
	}
	return func(p visibility.Point) []visibility.Point {
		out := make([]visibility.Point, 0, 2*radius)
		for d := int64(1); d <= radius; d++ {
			lo, hi := p.C[0]-d, p.C[0]+d
			if modulo > 0 {
				lo, hi = (lo%modulo+modulo)%modulo, hi%modulo
			}
			out = append(out, visibility.Pt(lo), visibility.Pt(hi))
		}
		return out
	}, nil
}

var kernels = registry[KernelFunc]{kind: "kernel", builders: map[string]builder[KernelFunc]{
	"identity": builtin(func(*args) (KernelFunc, error) {
		return func(_ visibility.Point, in float64) float64 { return in }, nil
	}),
	"fill": builtin(func(a *args) (KernelFunc, error) {
		v := a.get("value")
		return func(visibility.Point, float64) float64 { return v }, nil
	}),
	"affine": builtin(func(a *args) (KernelFunc, error) {
		scale, offset := a.get("scale"), a.get("offset")
		return func(_ visibility.Point, in float64) float64 { return in*scale + offset }, nil
	}),
	"coord": builtin(func(a *args) (KernelFunc, error) {
		axis := a.getInt("axis")
		if axis < 0 || axis >= geometry.MaxDim {
			return nil, fmt.Errorf("axis %d outside [0, %d)", axis, geometry.MaxDim)
		}
		return func(p visibility.Point, _ float64) float64 { return float64(p.C[axis]) }, nil
	}),
}}

var relations = registry[RelationFunc]{kind: "relation", builders: map[string]builder[RelationFunc]{
	"ring": builtin(func(a *args) (RelationFunc, error) {
		radius, modulo := a.getInt("radius"), a.getInt("modulo")
		if modulo < 1 {
			return nil, fmt.Errorf("ring needs modulo >= 1, got %d", modulo)
		}
		return neighbors(radius, modulo)
	}),
	"window": builtin(func(a *args) (RelationFunc, error) {
		return neighbors(a.getInt("radius"), 0)
	}),
}}

var colors = registry[ColorFunc]{kind: "color", builders: map[string]builder[ColorFunc]{
	"mod": builtin(func(a *args) (ColorFunc, error) {
		axis, n := a.getInt("axis"), a.getInt("n")
		if axis < 0 || axis >= geometry.MaxDim || n < 1 {
			return nil, fmt.Errorf("mod needs axis in [0, %d) and n >= 1", geometry.MaxDim)
		}
		return func(p visibility.Point) int { return int(((p.C[axis] % n) + n) % n) }, nil
	}),
	"block": builtin(func(a *args) (ColorFunc, error) {
		axis, size := a.getInt("axis"), a.getInt("size")
		if axis < 0 || axis >= geometry.MaxDim || size < 1 {
			return nil, fmt.Errorf("block needs axis in [0, %d) and size >= 1", geometry.MaxDim)
		}
		return func(p visibility.Point) int { return int(p.C[axis] / size) }, nil
	}),
}}

// --- the checker ----------------------------------------------------------

// scope is one namespace: root regions and partitions share their names.
// An Env holds the session's; check builds a second one out of a
// workload's own declarations, whose handles stay nil until Run runs it.
type scope map[string]*entry

// entry is what a name denotes: a root region or one of its partitions.
type entry struct {
	kind   string // "region" or "partition"
	name   string
	root   *entry          // the root region; of a region, itself
	fields map[string]bool // of a region
	pieces int             // of a partition
	region *visibility.Region
	part   *visibility.Partition
	subs   []*visibility.Region // of a partition: piece handles, each made on first use
}

// sub is the handle of piece i of a partition entry. Partition.Sub makes a
// new one on every call; the launches of a session share one per piece.
func (e *entry) sub(i int) *visibility.Region {
	if e.subs == nil {
		e.subs = make([]*visibility.Region, e.part.Len())
	}
	if e.subs[i] == nil {
		e.subs[i] = e.part.Sub(i)
	}
	return e.subs[i]
}

// claim checks that name, about to be declared as kind, is free among the
// workload's own declarations.
func claim(kind, name string, own scope) error {
	if e := own[name]; e != nil {
		if e.kind == kind {
			return fmt.Errorf("wire: duplicate %s name %q", kind, name)
		}
		return fmt.Errorf("wire: %s %q collides with a %s name", kind, name, e.kind)
	}
	return nil
}

// free checks that name, about to be declared, is not declared in the
// session s yet.
func (s scope) free(name string) error {
	if e := s[name]; e != nil {
		return fmt.Errorf("wire: name %q already declared as a %s", name, e.kind)
	}
	return nil
}

// plan is a checked workload in resolved form: what Run runs, once
// finish has met it with the session, without a second look at the
// declarations.
type plan struct {
	own     scope                       // the workload's declarations, handles unset
	declare []func(*visibility.Runtime) // one per region: creates it and its partitions, sets the handles
	tasks   []taskPlan
}

// taskPlan is one checked launch: its accesses and the kernel check built
// for them. A workload may refer to regions it declares itself, which
// exist only once Run has run the declarations, so an access keeps the
// entry it resolved to (and the piece, when that is a partition) and gets
// its region handle at launch.
type taskPlan struct {
	name     string
	after    []int
	accesses []access
	kernel   visibility.Kernel
}

// access is one checked access. Its reference is parsed when it is
// checked and resolved against the workload's own names then, or, in a
// pure batch, against the session's when finish meets them.
type access struct {
	visibility.Access        // Region unset
	ref               string // as declared: "cells" or "blocks[2]"
	piece             int    // -1: the reference names a root region
	target            *entry // nil until resolved
}

// Validate is the stateless check: everything that makes a workload
// well-formed without a session at hand. A pure batch (no region
// declarations) leaves its references to the session's Run.
func (wl *Workload) Validate() error {
	_, err := check(wl)
	return err
}

// check is the one place that decides whether a workload is well-formed
// without a session: it walks wl once and returns the resolved form,
// which plan.finish completes against a session. A workload that declares
// regions resolves its task references against its own declarations only,
// so a self-contained file is judged the same with or without a session.
func check(wl *Workload) (*plan, error) {
	if wl.Version != Version {
		return nil, fmt.Errorf("wire: unsupported version %d (want %d)", wl.Version, Version)
	}
	// Launches that share an access list, as Decode's do where a body
	// repeats one, share its checked form: the first checks the list.
	var shared listIndex
	n := 0
	for i := range wl.Tasks {
		if shared.first(i, wl.Tasks[i].Accesses) == i {
			n += len(wl.Tasks[i].Accesses)
		}
	}
	shared = listIndex{} // the second pass finds what the first did
	p := &plan{own: make(scope), tasks: make([]taskPlan, len(wl.Tasks))}
	accesses := make([]access, n) // every distinct list's window of one slice
	var kb kernelBuilder
	for i := range wl.Regions {
		declare, err := checkRegion(&wl.Regions[i], p.own, &kb)
		if err != nil {
			return nil, err
		}
		p.declare = append(p.declare, declare)
	}
	var own scope // nil: a pure batch, resolved in finish
	if len(wl.Regions) > 0 {
		own = p.own
	}
	for i := range wl.Tasks {
		t, tp := &wl.Tasks[i], &p.tasks[i]
		if j := shared.first(i, t.Accesses); j < i {
			if err := tp.repeat(t, i, &p.tasks[j]); err != nil {
				return nil, err
			}
			continue
		}
		tp.accesses, accesses = accesses[:len(t.Accesses):len(t.Accesses)], accesses[len(t.Accesses):]
		if err := tp.check(t, i, own, &kb); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// listIndex remembers the first launch to hold each access list, the same
// elements, for the first len(lists) lists; a list past those is checked
// on its own, as is one no launches share.
type listIndex struct {
	lists [64]struct {
		first   *AccessDecl
		n, task int
	}
	len int
}

// first returns the first launch to hold l, the list of launch i, at or
// before i.
func (x *listIndex) first(i int, l []AccessDecl) int {
	if len(l) == 0 {
		return i
	}
	for _, e := range x.lists[:x.len] {
		if e.first == &l[0] && e.n == len(l) {
			return e.task
		}
	}
	if x.len < len(x.lists) {
		x.lists[x.len].first, x.lists[x.len].n, x.lists[x.len].task = &l[0], len(l), i
		x.len++
	}
	return i
}

// finish gives the verdicts that need a session: the names wl declares
// must be free in it, and a pure batch's references must resolve against
// it. Every other verdict check has given.
func (p *plan) finish(wl *Workload, session scope) error {
	for i := range wl.Regions {
		r := &wl.Regions[i]
		if err := session.free(r.Name); err != nil {
			return err
		}
		for j := range r.Partitions {
			if err := session.free(r.Partitions[j].Name); err != nil {
				return err
			}
		}
	}
	if len(wl.Regions) > 0 {
		return nil // the tasks resolved against the workload's own names
	}
	for i := range p.tasks {
		tp := &p.tasks[i]
		if tp.accesses[0].target != nil {
			continue // a list an earlier launch shares and resolved
		}
		for ai := range tp.accesses {
			if err := tp.resolve(ai, session); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernelSlot is what one access contributes to its task's kernel.
type kernelSlot struct {
	spec     *FuncSpec  // nil: the identity
	f        KernelFunc // built from spec
	identity float64    // of a reduce access's operator
}

// kernelBuilder builds the kernels of one check: each spec's function once
// (the builtins are pure closures), and each task's visibility.Kernel once
// per distinct run of access kernels, so the launches of a batch that
// repeat one shape share one kernel. It remembers at most maxSpecs of
// each; past that it builds afresh.
type kernelBuilder struct {
	funcs  []kernelSlot
	shapes []taskKernel
	slots  []kernelSlot // the task being checked
}

type taskKernel struct {
	slots  []kernelSlot
	kernel visibility.Kernel
}

func (kb *kernelBuilder) build(spec *FuncSpec) (KernelFunc, error) {
	for _, b := range kb.funcs {
		if b.spec == spec {
			return b.f, nil
		}
	}
	f, err := kernels.build(spec)
	if err == nil && len(kb.funcs) < maxSpecs {
		kb.funcs = append(kb.funcs, kernelSlot{spec: spec, f: f})
	}
	return f, err
}

// kernel is the visibility.Kernel that runs slots, one per access.
func (kb *kernelBuilder) kernel(slots []kernelSlot) visibility.Kernel {
	same := func(a, b kernelSlot) bool { return a.spec == b.spec && a.identity == b.identity }
	for _, s := range kb.shapes {
		if slices.EqualFunc(s.slots, slots, same) {
			return s.kernel
		}
	}
	slots = slices.Clone(slots)
	k := visibility.Kernel{
		Write: func(ai int, p visibility.Point, in float64) float64 {
			if f := slots[ai].f; f != nil {
				return f(p, in)
			}
			return in
		},
		Reduce: func(ai int, p visibility.Point) float64 {
			if f := slots[ai].f; f != nil {
				return f(p, 0)
			}
			return slots[ai].identity
		},
	}
	if len(kb.shapes) < maxSpecs {
		kb.shapes = append(kb.shapes, taskKernel{slots, k})
	}
	return k
}

func checkRegion(r *RegionDecl, own scope, kb *kernelBuilder) (func(*visibility.Runtime), error) {
	if r.Name == "" {
		return nil, fmt.Errorf("wire: region with empty name")
	}
	if err := claim("region", r.Name, own); err != nil {
		return nil, err
	}
	space, err := index.FromRows(r.Dim, r.Space)
	if err != nil {
		return nil, fmt.Errorf("wire: region %q: %v", r.Name, err)
	}
	if space.IsEmpty() {
		return nil, fmt.Errorf("wire: region %q has an empty index space", r.Name)
	}
	if len(r.Fields) == 0 {
		return nil, fmt.Errorf("wire: region %q has no fields", r.Name)
	}
	if !space.VolumeAtMost(visibility.MaxRegionValues / int64(len(r.Fields))) {
		return nil, fmt.Errorf("wire: region %q exceeds %d values (points × fields)", r.Name, visibility.MaxRegionValues)
	}
	root := &entry{kind: "region", name: r.Name, fields: make(map[string]bool, len(r.Fields))}
	root.root = root
	for _, f := range r.Fields {
		if f == "" || root.fields[f] {
			return nil, fmt.Errorf("wire: region %q has empty or duplicate field %q", r.Name, f)
		}
		root.fields[f] = true
	}
	inits := make(map[string]KernelFunc, len(r.Init))
	keys := make([]string, 0, len(r.Init))
	for f := range r.Init {
		keys = append(keys, f)
	}
	sort.Strings(keys) // the first bad key is the same on every run
	for _, f := range keys {
		if !root.fields[f] {
			return nil, fmt.Errorf("wire: region %q: init for unknown field %q", r.Name, f)
		}
		if inits[f], err = kb.build(r.Init[f]); err != nil {
			return nil, fmt.Errorf("wire: region %q: init %q: %v", r.Name, f, err)
		}
	}
	own[r.Name] = root
	parts := make([]func(*visibility.Region), len(r.Partitions))
	for i := range r.Partitions {
		if parts[i], err = checkPartition(&r.Partitions[i], r, root, space, own); err != nil {
			return nil, err
		}
	}
	return func(rt *visibility.Runtime) {
		root.region = rt.CreateRegion(r.Name, space, r.Fields...)
		for _, f := range r.Fields { // declared order, not the map's
			if k := inits[f]; k != nil {
				root.region.Init(f, func(pt visibility.Point) float64 { return k(pt, 0) })
			}
		}
		for _, declare := range parts {
			declare(root.region)
		}
	}, nil
}

func checkPartition(p *PartitionDecl, r *RegionDecl, root *entry, space index.Space, own scope) (func(*visibility.Region), error) {
	if p.Name == "" {
		return nil, fmt.Errorf("wire: region %q: partition with empty name", r.Name)
	}
	if err := claim("partition", p.Name, own); err != nil {
		return nil, err
	}
	// sibling resolves an operand to an earlier partition of the same
	// region declaration.
	sibling := func(role, name string) (*entry, error) {
		e := own[name]
		if e == nil || e.kind != "partition" {
			return nil, fmt.Errorf("wire: partition %q: %s references unknown partition %q", p.Name, role, name)
		}
		if e.root != root {
			return nil, fmt.Errorf("wire: partition %q: %s partition %q belongs to region %q, not %q",
				p.Name, role, name, e.root.name, r.Name)
		}
		return e, nil
	}
	e := &entry{kind: "partition", name: p.Name, root: root}
	var build func(reg *visibility.Region) *visibility.Partition
	switch p.Kind {
	case "equal":
		if p.Pieces < 1 || int64(p.Pieces) > space.Volume() {
			return nil, fmt.Errorf("wire: partition %q: cannot split %d points into %d equal pieces",
				p.Name, space.Volume(), p.Pieces)
		}
		e.pieces = p.Pieces
		build = func(reg *visibility.Region) *visibility.Partition { return reg.PartitionEqual(p.Name, p.Pieces) }
	case "bycolor":
		// More pieces than points can only be empty, and the count sizes
		// an allocation: unbounded, it takes the process down.
		if p.Pieces < 1 || int64(p.Pieces) > space.Volume() {
			return nil, fmt.Errorf("wire: partition %q: cannot color %d points into %d pieces",
				p.Name, space.Volume(), p.Pieces)
		}
		color, err := colors.build(p.Color)
		if err != nil {
			return nil, fmt.Errorf("wire: partition %q: %v", p.Name, err)
		}
		e.pieces = p.Pieces
		build = func(reg *visibility.Region) *visibility.Partition {
			return reg.PartitionByColor(p.Name, p.Pieces, color)
		}
	case "explicit":
		if len(p.Spaces) == 0 {
			return nil, fmt.Errorf("wire: partition %q: explicit partition with no pieces", p.Name)
		}
		pieces := make([]visibility.IndexSpace, len(p.Spaces))
		for i, rows := range p.Spaces {
			sp, err := index.FromRows(r.Dim, rows)
			if err != nil {
				return nil, fmt.Errorf("wire: partition %q piece %d: %v", p.Name, i, err)
			}
			if !space.Covers(sp) {
				return nil, fmt.Errorf("wire: partition %q piece %d is not a subset of region %q", p.Name, i, r.Name)
			}
			pieces[i] = sp
		}
		e.pieces = len(pieces)
		build = func(reg *visibility.Region) *visibility.Partition { return reg.Partition(p.Name, pieces) }
	case "image", "preimage":
		src, err := sibling("source", p.Source)
		if err != nil {
			return nil, err
		}
		rel, err := relations.build(p.Relation)
		if err != nil {
			return nil, fmt.Errorf("wire: partition %q: %v", p.Name, err)
		}
		e.pieces = src.pieces
		build = func(reg *visibility.Region) *visibility.Partition {
			if p.Kind == "image" {
				return reg.PartitionImage(p.Name, src.part, rel)
			}
			return reg.PartitionPreimage(p.Name, src.part, rel)
		}
	case "minus":
		left, err := sibling("left", p.Left)
		if err != nil {
			return nil, err
		}
		right, err := sibling("right", p.Right)
		if err != nil {
			return nil, err
		}
		if left.pieces != right.pieces {
			return nil, fmt.Errorf("wire: partition %q: minus operands have %d and %d pieces",
				p.Name, left.pieces, right.pieces)
		}
		e.pieces = left.pieces
		build = func(*visibility.Region) *visibility.Partition { return left.part.Minus(p.Name, right.part) }
	default:
		return nil, fmt.Errorf("wire: partition %q: unknown kind %q", p.Name, p.Kind)
	}
	own[p.Name] = e
	return func(reg *visibility.Region) { e.part = build(reg) }, nil
}

// parseRef splits a region reference into base name and optional piece
// index: "cells" or "blocks[2]".
func parseRef(ref string) (base string, idx int, hasIdx bool, err error) {
	if ref == "" {
		return "", 0, false, fmt.Errorf("empty region reference")
	}
	base, rest, hasIdx := strings.Cut(ref, "[")
	if !hasIdx {
		return ref, 0, false, nil
	}
	digits, closed := strings.CutSuffix(rest, "]")
	n, perr := strconv.ParseUint(digits, 10, 64)
	switch {
	case base == "" || !closed || perr != nil && !errors.Is(perr, strconv.ErrRange):
		return "", 0, false, fmt.Errorf("malformed region reference %q", ref)
	case perr != nil || n > 1<<30:
		return "", 0, false, fmt.Errorf("piece index overflow in %q", ref)
	}
	return base, int(n), true, nil
}

var reduceOps = map[string]visibility.ReduceOp{
	"sum":  visibility.OpSum,
	"prod": visibility.OpProd,
	"min":  visibility.OpMin,
	"max":  visibility.OpMax,
}

// check checks t, the launch at position pos, builds its kernel, and
// resolves its references against the workload's own names; nil own (a
// pure batch) leaves them to finish.
func (tp *taskPlan) check(t *TaskDecl, pos int, own scope, kb *kernelBuilder) error {
	tp.name, tp.after = t.Name, t.After
	if t.Name == "" {
		return fmt.Errorf("wire: task %d has no name", pos)
	}
	if len(t.Accesses) == 0 {
		return fmt.Errorf("wire: task %q needs at least one access", t.Name)
	}
	slots := kb.slots[:0]
	for ai := range t.Accesses {
		a, acc := &t.Accesses[ai], &tp.accesses[ai]
		_, piece, indexed, err := parseRef(a.Region)
		if err != nil {
			return tp.fail(ai, "%v", err)
		}
		if acc.ref, acc.piece = a.Region, piece; !indexed {
			acc.piece = -1
		}
		slot := kernelSlot{spec: a.Kernel}
		switch a.Privilege {
		case "read":
			if a.Kernel != nil {
				return tp.fail(ai, "read access carries a kernel")
			}
			acc.Access = visibility.Read(nil, a.Field)
		case "write":
			acc.Access = visibility.Write(nil, a.Field)
		case "reduce":
			op, ok := reduceOps[a.Op]
			if !ok {
				return tp.fail(ai, "unknown reduction op %q", a.Op)
			}
			acc.Access, slot.identity = visibility.Reduce(op, nil, a.Field), privilege.Identity(op)
		default:
			return tp.fail(ai, "unknown privilege %q", a.Privilege)
		}
		if a.Op != "" && a.Privilege != "reduce" {
			return tp.fail(ai, "op on non-reduce access")
		}
		if a.Kernel != nil {
			if slot.f, err = kb.build(a.Kernel); err != nil {
				return tp.fail(ai, "%v", err)
			}
		}
		if a.Field == "" {
			return tp.fail(ai, "empty field")
		}
		slots = append(slots, slot)
		if own != nil {
			if err := tp.resolve(ai, own); err != nil {
				return err
			}
		}
	}
	if err := checkAfter(t, pos); err != nil {
		return err
	}
	tp.kernel, kb.slots = kb.kernel(slots), slots
	return nil
}

// repeat checks t, the launch at position pos, whose access list is that
// of the launch first checked: what check says of the list it said then.
func (tp *taskPlan) repeat(t *TaskDecl, pos int, first *taskPlan) error {
	if t.Name == "" {
		return fmt.Errorf("wire: task %d has no name", pos)
	}
	if err := checkAfter(t, pos); err != nil {
		return err
	}
	tp.name, tp.after, tp.accesses, tp.kernel = t.Name, t.After, first.accesses, first.kernel
	return nil
}

func checkAfter(t *TaskDecl, pos int) error {
	for _, a := range t.After {
		if a < 0 || a >= pos {
			return fmt.Errorf("wire: task %q: after index %d outside [0, %d)", t.Name, a, pos)
		}
	}
	return nil
}

// resolve resolves access ai's parsed reference against names.
func (tp *taskPlan) resolve(ai int, names scope) error {
	acc := &tp.accesses[ai]
	base, _, indexed := strings.Cut(acc.ref, "[")
	target := names[base]
	if target == nil || (target.kind == "partition") != indexed {
		return tp.fail(ai, "dangling reference %q", acc.ref)
	}
	if indexed && acc.piece >= target.pieces {
		return tp.fail(ai, "piece %d outside partition %q (len %d)", acc.piece, base, target.pieces)
	}
	if !target.root.fields[acc.Field] {
		return tp.fail(ai, "region %q has no field %q", target.root.name, acc.Field)
	}
	if first := tp.accesses[0].target; ai > 0 && first.root != target.root {
		return fmt.Errorf("wire: task %q mixes regions %q and %q (one tree per task)",
			tp.name, first.root.name, target.root.name)
	}
	acc.target = target
	return nil
}

func (tp *taskPlan) fail(ai int, format string, args ...any) error {
	return fmt.Errorf("wire: task %q access %d: %s", tp.name, ai, fmt.Sprintf(format, args...))
}

// spec is the launch tp describes, against the handles its entries now
// hold; its accesses are appended to scratch, which Launch does not keep.
func (tp *taskPlan) spec(scratch []visibility.Access) visibility.TaskSpec {
	for _, a := range tp.accesses {
		acc := a.Access
		acc.Region = a.target.region
		if a.piece >= 0 {
			acc.Region = a.target.sub(a.piece)
		}
		scratch = append(scratch, acc)
	}
	return visibility.TaskSpec{Name: tp.name, Accesses: scratch, Kernel: tp.kernel}
}
