// Command vislint runs the visibility runtime's custom static analyzers
// (internal/lint) over the module and reports invariant violations.
//
// Usage:
//
//	go run ./cmd/vislint [-run name,name] [-list] [-json] [packages]
//
// With no package patterns it checks ./... . It exits 0 when the tree is
// clean, 1 when any analyzer reports a diagnostic, and 2 when loading or
// analysis itself fails. Individual findings can be suppressed with a
// "//lint:allow <analyzer> <rationale>" comment on or above the offending
// line; the rationale is mandatory.
//
// -json emits machine-readable output for CI: a single JSON object with a
// "findings" array of {file, line, col, analyzer, message}, sorted by
// position, with file paths relative to the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"visibility/internal/lint"
)

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		runNames = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list     = flag.Bool("list", false, "list available analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit findings as JSON (file/line/col/analyzer/message)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vislint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runNames != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*runNames, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "vislint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vislint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vislint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		cwd, _ := os.Getwd()
		out := struct {
			Findings []finding `json:"findings"`
			Count    int       `json:"count"`
		}{Findings: []finding{}, Count: len(diags)}
		for _, d := range diags {
			file := d.Pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			out.Findings = append(out.Findings, finding{
				File: file, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "vislint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vislint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
