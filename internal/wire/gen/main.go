// Command gen regenerates the golden testdata workloads from the
// canonical example constructors: wire.Encode's compact form, indented so
// the files read and diff. Run from the repo root:
//
//	go run ./internal/wire/gen
package main

import (
	"bytes"
	"encoding/json"
	"os"

	"visibility/internal/wire"
)

func main() {
	write := func(path string, wl *wire.Workload) {
		var compact, indented bytes.Buffer
		if err := wire.Encode(&compact, wl); err != nil {
			panic(err)
		}
		if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
			panic(err)
		}
		if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
			panic(err)
		}
	}
	write("internal/wire/testdata/quickstart.json", wire.ExampleQuickstart())
	write("internal/wire/testdata/graphsim.json", wire.ExampleGraphsim(3))
}
