// Package paint implements the painter's algorithm for content-based
// coherence (paper §5): state is a history of privilege-region pairs in
// program order, and materializing a region replays the history from oldest
// to newest, overwriting on writes and folding on reductions.
//
// Two variants are provided. Naive is the direct transcription of Figure 7
// and serves as the executable specification, the oracle the registry does
// not offer. Painter is the optimized variant of §5.1: histories are
// sharded across the region tree so the history relevant to a region lies
// along its root path, with composite views snapshotting subtrees whose
// recorded tasks must precede a new launch, plus open/closed tracking,
// privilege summaries, and occlusion pruning.
package paint

import (
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/region"
)

// Naive is the unoptimized painter's algorithm of Figure 7: one flat
// history per field, scanned in full for every launch. As the oracle, it
// runs under no cost model and carries no instruments.
type Naive struct {
	tree *region.Tree
	// hist is the per-field paint history, appended by every Analyze with
	// no lock: the analyzer runs on exactly one goroutine.
	hist  map[field.ID][]core.Entry
	stats core.Stats
	scan  core.Scan // Analyze's, reused by every launch
}

// NewNaive creates a naive painter for tree.
func NewNaive(tree *region.Tree) *Naive {
	return &Naive{tree: tree, hist: make(map[field.ID][]core.Entry)}
}

// Name implements core.Analyzer.
func (n *Naive) Name() string { return "paint-naive" }

// Stats implements core.Analyzer.
func (n *Naive) Stats() *core.Stats { return &n.stats }

func (n *Naive) histFor(f field.ID) []core.Entry {
	h, ok := n.hist[f]
	if !ok {
		h = []core.Entry{core.SeedEntry(n.tree.Root)}
		n.hist[f] = h
	}
	return h
}

// Analyze implements core.Analyzer.
func (n *Naive) Analyze(t *Task) *core.Result {
	sc := &n.scan
	sc.Start(&n.stats, t)

	// materialize: replay the full history against each requirement.
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			// No points: every intersection below would be empty.
			continue
		}
		h := n.histFor(req.Field)
		sc.Begin(ri, req)
		for _, e := range h {
			n.stats.EntriesScanned++
			n.stats.OverlapTests++
			if inter := n.tree.Region(int(e.Foot) - 1).Space.Intersect(req.Region.Space); !inter.IsEmpty() {
				sc.Entry(e, inter)
			}
		}
	}

	// commit: append this task's operations to the history.
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			continue
		}
		n.hist[req.Field] = append(n.histFor(req.Field),
			core.Entry{Task: t.ID, Req: int32(ri), Foot: int32(req.Region.ID) + 1, Priv: req.Priv})
	}

	return sc.Result()
}

// Task is re-exported for brevity inside this package.
type Task = core.Task
