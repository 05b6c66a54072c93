// Package deadexporttest exercises the deadexport analyzer: exports that
// only tests call, or nothing calls, are reported; testonly exports,
// interface-satisfying methods and exports that the reference-only
// second root calls are not; a testonly export with a non-test caller is
// reported as stale.
package deadexporttest

import "fmt"

// use calls exports from non-test code in this package.
func use() string {
	var b Backend = Mem{}
	_, _ = b.Get("k")
	return fmt.Sprint(Live{}.Twice(Stale()))
}

// Uncalled has no caller at all.
func Uncalled() {} // want `deadexporttest\.Uncalled has no caller outside tests`

// OnlyFromTest is called only from this package's test file.
func OnlyFromTest() {} // want `deadexporttest\.OnlyFromTest has no caller outside tests`

// Oracle is a reference implementation that tests compare against.
//
//paralint:testonly reference oracle for the tests
func Oracle() int { return 1 }

// Stale is marked testonly, but use calls it.
//
//paralint:testonly no longer true
func Stale() int { return 2 } // want `deadexporttest\.Stale is marked testonly but has a non-test caller`

// Backend is satisfied by Mem.
type Backend interface {
	Get(key string) (any, bool)
}

// Mem's methods are reached through interfaces, never called directly.
type Mem struct{}

// Get satisfies Backend.
func (Mem) Get(string) (any, bool) { return nil, false }

// String satisfies fmt.Stringer.
func (Mem) String() string { return "mem" }

type failure struct{}

// Error satisfies error.
func (failure) Error() string { return "failure" }

// Live has used and unused methods.
type Live struct{}

// Twice is called by use.
func (Live) Twice(n int) int { return 2 * n }

// Half is never called.
func (Live) Half(n int) int { return n / 2 } // want `deadexporttest\.Live\.Half has no caller outside tests`

// Reset is never called.
func (*Live) Reset() {} // want `deadexporttest\.\(\*Live\)\.Reset has no caller outside tests`

// CalledByBench is called only from the second root's non-test code.
func CalledByBench() {}

// CalledByBenchTest is called only from the second root's test file.
func CalledByBenchTest() {}
