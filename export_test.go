package visibility

// HoldsInitialContents reports whether r's tree still holds its own copy
// of the initial contents.
func HoldsInitialContents(r *Region) bool { return r.tree.init != nil }
