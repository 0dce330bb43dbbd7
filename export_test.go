package visibility

// ExpectedInputs reports how many tasks' expected inputs r's tree still
// holds for Validate mode.
func ExpectedInputs(r *Region) int { return len(r.tree.seq.Inputs) }
