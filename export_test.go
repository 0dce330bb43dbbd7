package visibility

// ExpectedInputs reports how many tasks' expected inputs r's tree still
// holds for Validate mode.
func ExpectedInputs(r *Region) int { return len(r.tree.seq.Inputs) }

// HoldsInitialContents reports whether r's tree still holds its own copy
// of the initial contents.
func HoldsInitialContents(r *Region) bool { return r.tree.init != nil }
