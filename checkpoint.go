package visibility

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"visibility/internal/field"
	"visibility/internal/index"
)

// Checkpoint format: every region tree with its structure (spaces, fields,
// partitions in creation order) and the current coherent contents of every
// field, read through the coherence algorithm itself.

type ckptFile struct {
	Version int          `json:"version"`
	Regions []ckptRegion `json:"regions"`
	// Sum is the IEEE CRC-32 of the JSON encoding of Regions, in hex.
	// Verified on restore when present, so corruption that changes any
	// structural or value content is detected rather than silently
	// restored; a checkpoint without it restores without the check.
	Sum string `json:"sum,omitempty"`
}

// regionSum computes the Regions checksum stored in ckptFile.Sum. JSON
// encoding is canonical for this purpose: map keys are sorted and float64
// values use the shortest round-tripping representation, so
// encode→decode→encode is byte-stable.
func regionSum(regions []ckptRegion) (string, error) {
	raw, err := json.Marshal(regions)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw)), nil
}

type ckptRegion struct {
	Name       string          `json:"name"`
	Dim        int             `json:"dim"`
	Space      [][]int64       `json:"space"`
	Fields     []string        `json:"fields"`
	Partitions []ckptPartition `json:"partitions"`
	// Values maps field name to every point's value in the slab order of
	// the region's canonical space, the order data.Store.Fill visits.
	Values map[string][]float64 `json:"values"`
}

type ckptPartition struct {
	Parent int         `json:"parent"` // region ID within the tree
	Name   string      `json:"name"`
	Pieces [][][]int64 `json:"pieces"`
}

// MaxRegionValues bounds points × fields of a root region declared by
// untrusted bytes — a checkpoint here, a wire workload in internal/wire.
// CreateRegion stores one value per point per field, so without the bound
// a hundred-byte declaration can ask for the process's whole memory.
const MaxRegionValues = 1 << 22

// decodeSpace rebuilds an index space from the rect rows of an untrusted
// checkpoint (index.FromRows: malformed input is an error, never a panic).
func decodeSpace(dim int, rows [][]int64) (IndexSpace, error) {
	sp, err := index.FromRows(dim, rows)
	if err != nil {
		return sp, fmt.Errorf("visibility: %w", err)
	}
	return sp, nil
}

// Checkpoint waits for all launched work, reads every field's current
// contents through the coherence algorithm, and writes a JSON snapshot of
// every region tree — structure and data — to w. The runtime remains
// usable afterwards (the reads participate in dependence analysis like
// any other task).
func (rt *Runtime) Checkpoint(w io.Writer) error {
	rt.Wait()
	file := ckptFile{Version: 2}
	for _, r := range rt.regions {
		ts := r.tree
		cr := ckptRegion{
			Name:   ts.tree.Root.Name,
			Dim:    ts.tree.Root.Space.Dim(),
			Space:  ts.tree.Root.Space.Rows(),
			Values: make(map[string][]float64),
		}
		for i := 0; i < ts.tree.Fields.Len(); i++ {
			cr.Fields = append(cr.Fields, ts.tree.Fields.Name(field.ID(i)))
		}
		for i := 0; i < ts.tree.NumPartitions(); i++ {
			p := ts.tree.PartitionAt(i)
			cp := ckptPartition{Parent: p.Parent.ID, Name: p.Name}
			for _, sub := range p.Subregions {
				cp.Pieces = append(cp.Pieces, sub.Space.Rows())
			}
			cr.Partitions = append(cr.Partitions, cp)
		}
		for i, fname := range cr.Fields {
			// Nothing launched: the initial contents are current.
			st := ts.init[field.ID(i)]
			if ts.frozen {
				st = rt.Read(r, fname).st
			}
			cr.Values[fname] = st.Values()
		}
		file.Regions = append(file.Regions, cr)
	}
	sum, err := regionSum(file.Regions)
	if err != nil {
		return err
	}
	file.Sum = sum
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&file); err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// Restore builds a fresh runtime from a checkpoint: regions, fields,
// partitions (in creation order, so derived subregion identities line up),
// and initial contents equal to the snapshot. It returns the root regions
// by name.
func Restore(rd io.Reader, cfg Config) (*Runtime, map[string]*Region, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, nil, fmt.Errorf("visibility: reading checkpoint: %w", err)
	}
	// Well-formed JSON of another version is refused by its version, not
	// by the first field whose form changed.
	var file ckptFile
	err = json.Unmarshal(raw, &file)
	if _, syntax := err.(*json.SyntaxError); !syntax && file.Version != 2 {
		return nil, nil, fmt.Errorf("visibility: unsupported checkpoint version %d", file.Version)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("visibility: decoding checkpoint: %w", err)
	}
	if file.Sum != "" {
		sum, err := regionSum(file.Regions)
		if err != nil {
			return nil, nil, fmt.Errorf("visibility: re-encoding checkpoint for checksum: %w", err)
		}
		if sum != file.Sum {
			return nil, nil, fmt.Errorf("visibility: checkpoint checksum mismatch (file %s, contents %s)", file.Sum, sum)
		}
	}
	rt := New(cfg)
	roots := make(map[string]*Region, len(file.Regions))
	for _, cr := range file.Regions {
		// A restore feeds CreateRegion and Partition, which panic on
		// malformed structure by design (program bugs); untrusted bytes
		// must be screened into errors here instead.
		if cr.Name == "" {
			return nil, nil, fmt.Errorf("visibility: checkpoint region with empty name")
		}
		if _, dup := roots[cr.Name]; dup {
			return nil, nil, fmt.Errorf("visibility: duplicate region name %q in checkpoint", cr.Name)
		}
		if len(cr.Fields) == 0 {
			return nil, nil, fmt.Errorf("visibility: checkpoint region %q has no fields", cr.Name)
		}
		seenFields := make(map[string]bool, len(cr.Fields))
		for _, f := range cr.Fields {
			if f == "" || seenFields[f] {
				return nil, nil, fmt.Errorf("visibility: region %q has empty or duplicate field %q", cr.Name, f)
			}
			seenFields[f] = true
		}
		space, err := decodeSpace(cr.Dim, cr.Space)
		if err != nil {
			return nil, nil, err
		}
		if !space.VolumeAtMost(MaxRegionValues / int64(len(cr.Fields))) {
			return nil, nil, fmt.Errorf("visibility: checkpoint region %q exceeds %d values (points × fields)", cr.Name, MaxRegionValues)
		}
		root := rt.CreateRegion(cr.Name, space, cr.Fields...)
		roots[cr.Name] = root

		// Partitions recreate in the original creation order; region IDs
		// are then assigned identically, so parent references resolve.
		for _, cp := range cr.Partitions {
			pieces := make([]IndexSpace, 0, len(cp.Pieces))
			for _, enc := range cp.Pieces {
				sp, err := decodeSpace(cr.Dim, enc)
				if err != nil {
					return nil, nil, err
				}
				pieces = append(pieces, sp)
			}
			if cp.Parent < 0 || cp.Parent >= root.tree.tree.NumRegions() {
				return nil, nil, fmt.Errorf("visibility: partition %q references unknown parent region %d", cp.Name, cp.Parent)
			}
			parent := &Region{rt: rt, tree: root.tree, reg: root.tree.tree.Region(cp.Parent)}
			for i, sp := range pieces {
				if !parent.reg.Space.Covers(sp) {
					return nil, nil, fmt.Errorf("visibility: piece %d of partition %q is not a subset of its parent", i, cp.Name)
				}
			}
			parent.Partition(cp.Name, pieces)
		}

		for fname, vals := range cr.Values {
			id, ok := root.tree.tree.Fields.Lookup(fname)
			if !ok {
				return nil, nil, fmt.Errorf("visibility: checkpoint values for unknown field %q", fname)
			}
			if int64(len(vals)) != space.Volume() {
				return nil, nil, fmt.Errorf("visibility: checkpoint field %q of region %q has %d values for %d points", fname, cr.Name, len(vals), space.Volume())
			}
			i := 0
			root.tree.init[id].Fill(func(Point) float64 { i++; return vals[i-1] })
		}
	}
	return rt, roots, nil
}

// Partitions returns the partitions of this region, in creation order.
func (r *Region) Partitions() []*Partition {
	out := make([]*Partition, 0, len(r.reg.Partitions))
	for _, p := range r.reg.Partitions {
		out = append(out, &Partition{r: r, p: p})
	}
	return out
}

// PartitionName returns the partition's name.
func (p *Partition) PartitionName() string { return p.p.Name }
