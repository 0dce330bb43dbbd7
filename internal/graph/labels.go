package graph

import (
	"cmp"
	"slices"
)

// Label is one task's place on the weighted critical path.
type Label struct {
	Weight float64
	Finish float64 // earliest finish: the latest predecessor finish plus Weight
	Pred   int     // critical predecessor: the smallest ID with that finish; -1 at a root
}

// Labels is the weighted critical path kept online: one label per task in
// program order and the running totals a query reads. Launches arrive in
// program order and are never revised (§3.2), so when a task is added its
// row is final and every predecessor is already labelled: its label is
// fixed then, and a query walks the path and nothing else.
type Labels struct {
	Tasks        []Label
	Edges        int
	Work, Length float64
	End          int // the path's last task: the smallest ID whose finish is Length
}

// Add labels the next task, of weight w, whose dependence row is row:
// ascending IDs of tasks already added.
func (c *Labels) Add(w float64, row []int) {
	l := Label{Weight: w, Pred: -1}
	for _, p := range row {
		if f := c.Tasks[p].Finish; f > l.Finish {
			l.Finish, l.Pred = f, p
		}
	}
	l.Finish += w
	if l.Finish > c.Length {
		c.Length, c.End = l.Finish, len(c.Tasks)
	}
	c.Tasks = append(c.Tasks, l)
	c.Edges += len(row)
	c.Work += w
}

// Path returns the critical path in execution order, each task with its
// weight and finish: a walk back from its end. Nil when nothing was added.
func (c *Labels) Path() []Step {
	if len(c.Tasks) == 0 {
		return nil
	}
	var path []Step
	for id := c.End; id != -1; id = c.Tasks[id].Pred {
		path = append(path, Step{Task: id, Weight: c.Tasks[id].Weight, Finish: c.Tasks[id].Finish})
	}
	slices.Reverse(path)
	return path
}

// Top returns the k heaviest steps of path, descending by weight, equal
// weights in path order; k ≤ 0 returns them all. path is not modified.
func Top(path []Step, k int) []Step {
	top := slices.Clone(path)
	slices.SortStableFunc(top, func(a, b Step) int { return cmp.Compare(b.Weight, a.Weight) })
	if k > 0 && k < len(top) {
		top = top[:k]
	}
	return top
}
