package graph

import "sort"

// Critical is the weighted critical-path analysis of a DAG: per-task
// earliest start/finish times under the given node weights, per-task
// slack against the makespan, and one longest (weighted) chain. All
// quantities are in whatever deterministic unit the weights use —
// virtual analysis operations plus virtual execution time here, never
// wall clock — so the analysis is byte-reproducible across runs.
type Critical struct {
	// Weights holds each task's node weight (≥1) as used by the analysis.
	Weights []float64
	// Start and Finish are each task's earliest start and finish under
	// infinite parallelism: Start[i] = max over preds p of Finish[p].
	Start, Finish []float64
	// Slack is how much each task's finish can slip without growing the
	// makespan; 0 for tasks on a critical path.
	Slack []float64
	// Path is one critical (maximum-weight) chain of task IDs, ascending
	// in execution order. Ties break to the smallest task ID so the path
	// is deterministic.
	Path []int
	// Length is the makespan: the weight of the critical path.
	Length float64
	// Work is the total weight of all tasks; Work/Length is the average
	// parallelism the dependences leave available.
	Work float64
}

// WeightedCriticalPath computes the weighted critical path of d under
// per-task node weights. Weights shorter than the task list are padded
// with 1; entries < 1 are clamped to 1 so an unweighted task still
// occupies a schedulable step. Returns a zero-value Critical for an
// empty DAG.
func (d *DAG) WeightedCriticalPath(weights []float64) *Critical {
	n := len(d.Tasks)
	c := &Critical{
		Weights: make([]float64, n),
		Start:   make([]float64, n),
		Finish:  make([]float64, n),
		Slack:   make([]float64, n),
	}
	if n == 0 {
		return c
	}
	for i := 0; i < n; i++ {
		w := 1.0
		if i < len(weights) && weights[i] > 1 {
			w = weights[i]
		}
		c.Weights[i] = w
		c.Work += w
	}
	// Forward pass: IDs are dense in launch order and every dependence
	// points backward, so position order is already a topological order.
	// critPred[i] is the predecessor that determines Start[i] (smallest ID
	// among maxima, for deterministic walk-back); -1 at roots.
	critPred := make([]int, n)
	for i := 0; i < n; i++ {
		critPred[i] = -1
		for _, p := range d.Deps[i] {
			if c.Finish[p] > c.Start[i] {
				c.Start[i] = c.Finish[p]
				critPred[i] = p
			}
		}
		c.Finish[i] = c.Start[i] + c.Weights[i]
		if c.Finish[i] > c.Length {
			c.Length = c.Finish[i]
		}
	}
	// Backward pass: latest finish each task can have without delaying any
	// successor (or the makespan, for sinks).
	latest := make([]float64, n)
	for i := range latest {
		latest[i] = c.Length
	}
	for i := n - 1; i >= 0; i-- {
		for _, p := range d.Deps[i] {
			if lf := latest[i] - c.Weights[i]; lf < latest[p] {
				latest[p] = lf
			}
		}
		c.Slack[i] = latest[i] - c.Finish[i]
	}
	// Walk one critical chain back from the earliest-finishing maximal
	// sink: smallest ID whose finish equals the makespan.
	end := -1
	for i := 0; i < n; i++ {
		if c.Finish[i] == c.Length {
			end = i
			break
		}
	}
	var rev []int
	for cur := end; cur != -1; cur = critPred[cur] {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	c.Path = rev
	return c
}

// LevelSlack aggregates slack by level: out[l] is the minimum slack of
// any task on level l — how much room that whole rank of the schedule
// has before it binds the makespan. Levels containing a critical task
// report 0.
func (d *DAG) LevelSlack(c *Critical) []float64 {
	levels := d.Levels()
	max := -1
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	if max < 0 {
		return nil
	}
	out := make([]float64, max+1)
	seen := make([]bool, max+1)
	for i, l := range levels {
		if !seen[l] || c.Slack[i] < out[l] {
			out[l], seen[l] = c.Slack[i], true
		}
	}
	return out
}

// Contributor attributes critical-path time to one task: its weight and
// the share of the makespan it accounts for.
type Contributor struct {
	Task   int
	Name   string
	Weight float64
	Share  float64 // Weight / Length, in [0,1]
}

// TopContributors returns the k heaviest tasks on the critical path,
// descending by weight (ties to the smaller task ID). k ≤ 0 or k beyond
// the path length returns the whole path's tasks.
func (d *DAG) TopContributors(c *Critical, k int) []Contributor {
	out := make([]Contributor, 0, len(c.Path))
	for _, id := range c.Path {
		con := Contributor{Task: id, Name: d.Tasks[id].Name, Weight: c.Weights[id]}
		if c.Length > 0 {
			con.Share = con.Weight / c.Length
		}
		out = append(out, con)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Task < out[j].Task
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
