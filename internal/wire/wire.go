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
// sort), and decode→encode→decode is a fixed point.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"visibility"
	"visibility/internal/geometry"
	"visibility/internal/index"
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

// Decode reads one workload from r, rejecting unknown fields, trailing
// garbage, and every structural error Validate covers.
func Decode(r io.Reader) (*Workload, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var wl Workload
	if err := dec.Decode(&wl); err != nil {
		return nil, fmt.Errorf("wire: decoding workload: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wire: trailing data after workload")
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return &wl, nil
}

// Encode writes wl as indented JSON. Field order is fixed by the struct
// definitions and encoding/json sorts map keys, so a given workload has
// exactly one serialization.
func Encode(w io.Writer, wl *Workload) error {
	b, err := json.MarshalIndent(wl, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// --- registries ---------------------------------------------------------

// KernelFunc is a pure per-point function: for write accesses in is the
// current value; for reduce accesses and initial contents in is zero.
type KernelFunc func(p visibility.Point, in float64) float64

// RelationFunc maps a point to related points (image/preimage operands).
type RelationFunc func(p visibility.Point) []visibility.Point

// ColorFunc assigns a point to a partition piece.
type ColorFunc func(p visibility.Point) int

var (
	regMu     sync.Mutex
	kernels   = map[string]func(args map[string]float64) (KernelFunc, error){}
	relations = map[string]func(args map[string]float64) (RelationFunc, error){}
	colors    = map[string]func(args map[string]float64) (ColorFunc, error){}
)

// RegisterKernel installs a named kernel builder. Registering a duplicate
// or empty name panics — a wiring bug, not a runtime condition.
func RegisterKernel(name string, build func(args map[string]float64) (KernelFunc, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || kernels[name] != nil {
		panic(fmt.Sprintf("wire: kernel %q empty or already registered", name))
	}
	kernels[name] = build
}

// RegisterRelation installs a named relation builder.
func RegisterRelation(name string, build func(args map[string]float64) (RelationFunc, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || relations[name] != nil {
		panic(fmt.Sprintf("wire: relation %q empty or already registered", name))
	}
	relations[name] = build
}

// RegisterColor installs a named coloring builder.
func RegisterColor(name string, build func(args map[string]float64) (ColorFunc, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || colors[name] != nil {
		panic(fmt.Sprintf("wire: color %q empty or already registered", name))
	}
	colors[name] = build
}

// KernelNames returns the registered kernel names, sorted.
func KernelNames() []string { return sortedNames(kernels) }

// RelationNames returns the registered relation names, sorted.
func RelationNames() []string { return sortedNames(relations) }

// ColorNames returns the registered coloring names, sorted.
func ColorNames() []string { return sortedNames(colors) }

func sortedNames[T any](m map[string]T) []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func buildKernel(spec *FuncSpec) (KernelFunc, error) {
	regMu.Lock()
	b := kernels[spec.Name]
	regMu.Unlock()
	if b == nil {
		return nil, fmt.Errorf("wire: unknown kernel %q (have %v)", spec.Name, KernelNames())
	}
	return b(spec.Args)
}

func buildRelation(spec *FuncSpec) (RelationFunc, error) {
	regMu.Lock()
	b := relations[spec.Name]
	regMu.Unlock()
	if b == nil {
		return nil, fmt.Errorf("wire: unknown relation %q (have %v)", spec.Name, RelationNames())
	}
	return b(spec.Args)
}

func buildColor(spec *FuncSpec) (ColorFunc, error) {
	regMu.Lock()
	b := colors[spec.Name]
	regMu.Unlock()
	if b == nil {
		return nil, fmt.Errorf("wire: unknown color %q (have %v)", spec.Name, ColorNames())
	}
	return b(spec.Args)
}

// args wraps a FuncSpec's argument map with exact-arity checking: every
// Get must name a declared key, and Done reports keys the caller never
// consumed — an unknown argument is as much an error as a missing one.
type args struct {
	m    map[string]float64
	used map[string]bool
	err  error
}

func newArgs(m map[string]float64) *args {
	return &args{m: m, used: make(map[string]bool)}
}

func (a *args) get(name string) float64 {
	v, ok := a.m[name]
	if !ok && a.err == nil {
		a.err = fmt.Errorf("missing argument %q", name)
	}
	a.used[name] = true
	return v
}

func (a *args) getInt(name string) int64 {
	v := a.get(name)
	if a.err == nil && (math.IsNaN(v) || v != math.Trunc(v)) {
		a.err = fmt.Errorf("argument %q = %v is not an integer", name, v)
	}
	return int64(v)
}

func (a *args) done() error {
	if a.err != nil {
		return a.err
	}
	for k := range a.m {
		if !a.used[k] {
			return fmt.Errorf("unknown argument %q", k)
		}
	}
	return nil
}

func init() {
	RegisterKernel("identity", func(m map[string]float64) (KernelFunc, error) {
		if err := newArgs(m).done(); err != nil {
			return nil, err
		}
		return func(_ visibility.Point, in float64) float64 { return in }, nil
	})
	RegisterKernel("fill", func(m map[string]float64) (KernelFunc, error) {
		a := newArgs(m)
		v := a.get("value")
		if err := a.done(); err != nil {
			return nil, err
		}
		return func(visibility.Point, float64) float64 { return v }, nil
	})
	RegisterKernel("affine", func(m map[string]float64) (KernelFunc, error) {
		a := newArgs(m)
		scale, offset := a.get("scale"), a.get("offset")
		if err := a.done(); err != nil {
			return nil, err
		}
		return func(_ visibility.Point, in float64) float64 { return in*scale + offset }, nil
	})
	RegisterKernel("coord", func(m map[string]float64) (KernelFunc, error) {
		a := newArgs(m)
		axis := a.getInt("axis")
		if err := a.done(); err != nil {
			return nil, err
		}
		if axis < 0 || axis >= geometry.MaxDim {
			return nil, fmt.Errorf("axis %d outside [0, %d)", axis, geometry.MaxDim)
		}
		return func(p visibility.Point, _ float64) float64 { return float64(p.C[axis]) }, nil
	})
	RegisterRelation("ring", func(m map[string]float64) (RelationFunc, error) {
		a := newArgs(m)
		radius, modulo := a.getInt("radius"), a.getInt("modulo")
		if err := a.done(); err != nil {
			return nil, err
		}
		if radius < 1 || modulo < 1 {
			return nil, fmt.Errorf("ring needs radius >= 1 and modulo >= 1, got %d, %d", radius, modulo)
		}
		return func(p visibility.Point) []visibility.Point {
			out := make([]visibility.Point, 0, 2*radius)
			for d := int64(1); d <= radius; d++ {
				out = append(out,
					visibility.Pt(((p.C[0]-d)%modulo+modulo)%modulo),
					visibility.Pt((p.C[0]+d)%modulo))
			}
			return out
		}, nil
	})
	RegisterRelation("window", func(m map[string]float64) (RelationFunc, error) {
		a := newArgs(m)
		radius := a.getInt("radius")
		if err := a.done(); err != nil {
			return nil, err
		}
		if radius < 1 {
			return nil, fmt.Errorf("window needs radius >= 1, got %d", radius)
		}
		return func(p visibility.Point) []visibility.Point {
			out := make([]visibility.Point, 0, 2*radius)
			for d := int64(1); d <= radius; d++ {
				out = append(out, visibility.Pt(p.C[0]-d), visibility.Pt(p.C[0]+d))
			}
			return out
		}, nil
	})
	RegisterColor("mod", func(m map[string]float64) (ColorFunc, error) {
		a := newArgs(m)
		axis, n := a.getInt("axis"), a.getInt("n")
		if err := a.done(); err != nil {
			return nil, err
		}
		if axis < 0 || axis >= geometry.MaxDim || n < 1 {
			return nil, fmt.Errorf("mod needs axis in [0, %d) and n >= 1", geometry.MaxDim)
		}
		return func(p visibility.Point) int { return int(((p.C[axis] % n) + n) % n) }, nil
	})
	RegisterColor("block", func(m map[string]float64) (ColorFunc, error) {
		a := newArgs(m)
		axis, size := a.getInt("axis"), a.getInt("size")
		if err := a.done(); err != nil {
			return nil, err
		}
		if axis < 0 || axis >= geometry.MaxDim || size < 1 {
			return nil, fmt.Errorf("block needs axis in [0, %d) and size >= 1", geometry.MaxDim)
		}
		return func(p visibility.Point) int { return int(p.C[axis] / size) }, nil
	})
}

// --- validation ---------------------------------------------------------

// declared tracks what one workload's region declarations define, for
// resolving references during validation and piece-count checks.
type declared struct {
	// regions maps root region name to its declaration.
	regions map[string]*RegionDecl
	// parts maps partition name to (owning region name, piece count).
	parts map[string]partInfo
}

type partInfo struct {
	region string
	pieces int
}

// Validate checks every structural property of the workload that does not
// depend on prior session state: version, region/partition declarations
// (including registry resolution of every named function), and — when the
// workload declares regions — task references. A pure batch (no region
// declarations) defers reference resolution to the session environment.
func (wl *Workload) Validate() error {
	if wl.Version != Version {
		return fmt.Errorf("wire: unsupported version %d (want %d)", wl.Version, Version)
	}
	d := &declared{regions: make(map[string]*RegionDecl), parts: make(map[string]partInfo)}
	for i := range wl.Regions {
		if err := validateRegion(&wl.Regions[i], d); err != nil {
			return err
		}
	}
	for i := range wl.Tasks {
		if err := validateTask(&wl.Tasks[i], i, d, len(wl.Regions) > 0); err != nil {
			return err
		}
	}
	return nil
}

func validateRegion(r *RegionDecl, d *declared) error {
	if r.Name == "" {
		return fmt.Errorf("wire: region with empty name")
	}
	if _, dup := d.regions[r.Name]; dup {
		return fmt.Errorf("wire: duplicate region name %q", r.Name)
	}
	if _, dup := d.parts[r.Name]; dup {
		return fmt.Errorf("wire: region %q collides with a partition name", r.Name)
	}
	space, err := index.FromRows(r.Dim, r.Space)
	if err != nil {
		return fmt.Errorf("wire: region %q: %v", r.Name, err)
	}
	if space.IsEmpty() {
		return fmt.Errorf("wire: region %q has an empty index space", r.Name)
	}
	if len(r.Fields) == 0 {
		return fmt.Errorf("wire: region %q has no fields", r.Name)
	}
	fields := make(map[string]bool, len(r.Fields))
	for _, f := range r.Fields {
		if f == "" || fields[f] {
			return fmt.Errorf("wire: region %q has empty or duplicate field %q", r.Name, f)
		}
		fields[f] = true
	}
	for f, spec := range r.Init {
		if !fields[f] {
			return fmt.Errorf("wire: region %q: init for unknown field %q", r.Name, f)
		}
		if spec == nil {
			return fmt.Errorf("wire: region %q: nil init kernel for field %q", r.Name, f)
		}
		if _, err := buildKernel(spec); err != nil {
			return fmt.Errorf("wire: region %q: init %q: %v", r.Name, f, err)
		}
	}
	d.regions[r.Name] = r
	for i := range r.Partitions {
		if err := validatePartition(&r.Partitions[i], r, space, d); err != nil {
			return err
		}
	}
	return nil
}

func validatePartition(p *PartitionDecl, r *RegionDecl, space index.Space, d *declared) error {
	if p.Name == "" {
		return fmt.Errorf("wire: region %q: partition with empty name", r.Name)
	}
	if _, dup := d.parts[p.Name]; dup {
		return fmt.Errorf("wire: duplicate partition name %q", p.Name)
	}
	if _, dup := d.regions[p.Name]; dup {
		return fmt.Errorf("wire: partition %q collides with a region name", p.Name)
	}
	// sibling resolves a partition reference to an earlier partition of
	// the same region.
	sibling := func(role, name string) (partInfo, error) {
		pi, ok := d.parts[name]
		if !ok {
			return partInfo{}, fmt.Errorf("wire: partition %q: %s references unknown partition %q", p.Name, role, name)
		}
		if pi.region != r.Name {
			return partInfo{}, fmt.Errorf("wire: partition %q: %s partition %q belongs to region %q, not %q",
				p.Name, role, name, pi.region, r.Name)
		}
		return pi, nil
	}
	pieces := 0
	switch p.Kind {
	case "equal":
		if p.Pieces < 1 || int64(p.Pieces) > space.Volume() {
			return fmt.Errorf("wire: partition %q: cannot split %d points into %d equal pieces",
				p.Name, space.Volume(), p.Pieces)
		}
		pieces = p.Pieces
	case "explicit":
		if len(p.Spaces) == 0 {
			return fmt.Errorf("wire: partition %q: explicit partition with no pieces", p.Name)
		}
		for i, rows := range p.Spaces {
			sp, err := index.FromRows(r.Dim, rows)
			if err != nil {
				return fmt.Errorf("wire: partition %q piece %d: %v", p.Name, i, err)
			}
			if !space.Covers(sp) {
				return fmt.Errorf("wire: partition %q piece %d is not a subset of region %q", p.Name, i, r.Name)
			}
		}
		pieces = len(p.Spaces)
	case "image", "preimage":
		pi, err := sibling("source", p.Source)
		if err != nil {
			return err
		}
		if p.Relation == nil {
			return fmt.Errorf("wire: partition %q: %s partition needs a relation", p.Name, p.Kind)
		}
		if _, err := buildRelation(p.Relation); err != nil {
			return fmt.Errorf("wire: partition %q: %v", p.Name, err)
		}
		pieces = pi.pieces
	case "bycolor":
		if p.Pieces < 1 {
			return fmt.Errorf("wire: partition %q: bycolor needs pieces >= 1", p.Name)
		}
		if p.Color == nil {
			return fmt.Errorf("wire: partition %q: bycolor partition needs a color", p.Name)
		}
		if _, err := buildColor(p.Color); err != nil {
			return fmt.Errorf("wire: partition %q: %v", p.Name, err)
		}
		pieces = p.Pieces
	case "minus":
		left, err := sibling("left", p.Left)
		if err != nil {
			return err
		}
		right, err := sibling("right", p.Right)
		if err != nil {
			return err
		}
		if left.pieces != right.pieces {
			return fmt.Errorf("wire: partition %q: minus operands have %d and %d pieces",
				p.Name, left.pieces, right.pieces)
		}
		pieces = left.pieces
	default:
		return fmt.Errorf("wire: partition %q: unknown kind %q", p.Name, p.Kind)
	}
	d.parts[p.Name] = partInfo{region: r.Name, pieces: pieces}
	return nil
}

// parseRef splits a region reference into base name and optional piece
// index: "cells" or "blocks[2]".
func parseRef(ref string) (base string, idx int, hasIdx bool, err error) {
	if ref == "" {
		return "", 0, false, fmt.Errorf("empty region reference")
	}
	open := -1
	for i := 0; i < len(ref); i++ {
		if ref[i] == '[' {
			open = i
			break
		}
	}
	if open == -1 {
		return ref, 0, false, nil
	}
	if open == 0 || ref[len(ref)-1] != ']' {
		return "", 0, false, fmt.Errorf("malformed region reference %q", ref)
	}
	n := 0
	digits := ref[open+1 : len(ref)-1]
	if digits == "" {
		return "", 0, false, fmt.Errorf("malformed region reference %q", ref)
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return "", 0, false, fmt.Errorf("malformed region reference %q", ref)
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return "", 0, false, fmt.Errorf("piece index overflow in %q", ref)
		}
	}
	return ref[:open], n, true, nil
}

var reduceOps = map[string]visibility.ReduceOp{
	"sum":  visibility.OpSum,
	"prod": visibility.OpProd,
	"min":  visibility.OpMin,
	"max":  visibility.OpMax,
}

func validateTask(t *TaskDecl, pos int, d *declared, resolveRefs bool) error {
	if t.Name == "" {
		return fmt.Errorf("wire: task %d has no name", pos)
	}
	if len(t.Accesses) == 0 {
		return fmt.Errorf("wire: task %q needs at least one access", t.Name)
	}
	tree := "" // root region every access must share
	for ai := range t.Accesses {
		a := &t.Accesses[ai]
		base, idx, hasIdx, err := parseRef(a.Region)
		if err != nil {
			return fmt.Errorf("wire: task %q access %d: %v", t.Name, ai, err)
		}
		switch a.Privilege {
		case "read":
			if a.Kernel != nil {
				return fmt.Errorf("wire: task %q access %d: read access carries a kernel", t.Name, ai)
			}
			if a.Op != "" {
				return fmt.Errorf("wire: task %q access %d: op on non-reduce access", t.Name, ai)
			}
		case "write":
			if a.Op != "" {
				return fmt.Errorf("wire: task %q access %d: op on non-reduce access", t.Name, ai)
			}
		case "reduce":
			if _, ok := reduceOps[a.Op]; !ok {
				return fmt.Errorf("wire: task %q access %d: unknown reduction op %q", t.Name, ai, a.Op)
			}
		default:
			return fmt.Errorf("wire: task %q access %d: unknown privilege %q", t.Name, ai, a.Privilege)
		}
		if a.Kernel != nil {
			if _, err := buildKernel(a.Kernel); err != nil {
				return fmt.Errorf("wire: task %q access %d: %v", t.Name, ai, err)
			}
		}
		if a.Field == "" {
			return fmt.Errorf("wire: task %q access %d: empty field", t.Name, ai)
		}
		if !resolveRefs {
			continue
		}
		root := ""
		if hasIdx {
			pi, ok := d.parts[base]
			if !ok {
				return fmt.Errorf("wire: task %q access %d: dangling reference %q", t.Name, ai, a.Region)
			}
			if idx >= pi.pieces {
				return fmt.Errorf("wire: task %q access %d: piece %d outside partition %q (len %d)",
					t.Name, ai, idx, base, pi.pieces)
			}
			root = pi.region
		} else {
			if _, ok := d.regions[base]; !ok {
				return fmt.Errorf("wire: task %q access %d: dangling reference %q", t.Name, ai, a.Region)
			}
			root = base
		}
		fieldOK := false
		for _, f := range d.regions[root].Fields {
			if f == a.Field {
				fieldOK = true
				break
			}
		}
		if !fieldOK {
			return fmt.Errorf("wire: task %q access %d: region %q has no field %q", t.Name, ai, root, a.Field)
		}
		if tree == "" {
			tree = root
		} else if tree != root {
			return fmt.Errorf("wire: task %q mixes regions %q and %q (one tree per task)", t.Name, tree, root)
		}
	}
	for _, a := range t.After {
		if a < 0 || a >= pos {
			return fmt.Errorf("wire: task %q: after index %d outside [0, %d)", t.Name, a, pos)
		}
	}
	return nil
}
