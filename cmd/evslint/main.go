// Command evslint runs the repo's analyzer suite (see
// internal/analysis/lint) over Go packages and reports invariant
// violations. It exits 0 on a clean tree, 1 on diagnostics, 2 on
// operational errors.
//
// It loads packages itself (dependencies resolved from compiler export
// data via `go list -export`, the way go vet resolves them — no network,
// no third-party code) and checks the whole set in one process, so the
// audit sees every diagnostic before judging a waiver stale:
//
//	go run ./cmd/evslint ./...
//	evslint -list              # print the analyzer registry
//	evslint -allow-audit ./... # also report stale //lint:allow waivers
//
// Suppression: //lint:allow <analyzer> <reason> on the offending line or
// the line above. Reasons are mandatory and unknown analyzer names are
// themselves reported; see DESIGN.md §11 for the annotation vocabulary.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("evslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "print the analyzer registry and exit")
		audit = fs.Bool("allow-audit", false, "also report well-formed //lint:allow directives that suppress no diagnostic")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	check := lint.Check
	if *audit {
		check = lint.CheckAudit
	}
	diags, err := check(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "evslint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "evslint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}
