// Package deadexportbench stands in for perfbench: a second load root,
// loaded reference-only with its test files, whose calls keep exports of
// deadexporttest alive.
package deadexportbench

import "paratime/internal/lint/testdata/src/deadexporttest"

// Run calls one export from non-test code.
func Run() { deadexporttest.CalledByBench() }
