// Command eblocksvet is the repository's multichecker: it runs the
// internal/analysis suite — determinism, ctxflow, lockheld,
// wireversion, metricname, exporteddoc — over Go packages and exits
// non-zero on any finding. CI runs it over ./... as a required step.
//
// Usage:
//
//	go run ./cmd/eblocksvet ./...
//	go run ./cmd/eblocksvet -run determinism,lockheld ./internal/...
//	go run ./cmd/eblocksvet -list
//
// Suppress individual findings with `//eblocks:ignore <analyzer>
// <reason>` on the same or the preceding line; see docs/ANALYSIS.md
// for the full catalog.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

func main() {
	var (
		list = flag.Bool("list", false, "list the analyzers in the suite and exit")
		run  = flag.String("run", "all", "comma-separated analyzer names to run")
		dir  = flag.String("dir", "", "directory to run go list from (default: current directory)")
	)
	flag.Parse()

	analyzers, err := analysis.Select(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eblocksvet: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	diags, err := driver.Run(driver.Options{Dir: *dir, Patterns: flag.Args()}, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eblocksvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "eblocksvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// firstLine truncates a doc string to its first line for -list.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
