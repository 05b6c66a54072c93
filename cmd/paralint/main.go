// Command paralint runs paratime's repo-specific static-analysis suite
// (internal/lint): mapiter, keycover, nondeterm, sortedout and
// deadexport — the mechanized determinism, fingerprint-coverage and
// no-unused-code contracts.
//
// Run it from the repository root as `go run ./cmd/paralint`. It takes
// no arguments: it loads the whole module plus the nested perfbench
// module as one program, because deadexport is only sound over every
// caller. Diagnostics go to stderr sorted by position, and any
// diagnostic makes it exit 1.
//
// Test files are never analyzed: the contracts govern result-producing
// code, and test-output stability is pinned by goldens instead. For
// deadexport, a call from a module test does not keep an export alive.
package main

import (
	"fmt"
	"os"

	"paratime/internal/lint"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: paralint (run from the repository root; takes no arguments)")
		os.Exit(2)
	}
	pkgs, err := lint.LoadRepo(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diags, _, err := lint.Run(pkgs, lint.Suite(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "paralint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
