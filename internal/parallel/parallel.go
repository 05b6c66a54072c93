// Package parallel provides bounded fork/join primitives: deterministic
// ordered fan-out of independent index-addressed work items across a
// capped number of goroutines, and the process-wide worker-count knob
// the CLI and the analysis service wire their -parallelism flags into.
//
// Within one analysis the only parallel step is explore pricing
// (explore.ExplorePar): the cache and pipeline fixpoints run
// sequentially, because their parallel schedules never beat the
// sequential worklists. Across analyses, sweep workers and the batch
// engine fan out whole analyses.
//
// The determinism contract: work items are independent (each index
// writes only its own slot of a result vector, and shares only
// read-only inputs with other indices), and reductions happen after the
// barrier in index order. The parallel schedule therefore produces
// bit-identical results to the sequential loop at any worker count,
// which the explore differential tests check at several worker counts.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvVar is the environment variable consulted by Default when no
// explicit process-wide parallelism has been set.
const EnvVar = "PARATIME_PARALLELISM"

// defaultPar holds the explicit process-wide setting (0 = automatic).
var defaultPar atomic.Int64

// SetDefault fixes the process-wide worker count used when a caller
// passes 0: the explore-pricing workers of each analysis, and the sweep
// workers when a sweep leaves its own count unset. n <= 0 restores
// automatic selection (PARATIME_PARALLELISM, else GOMAXPROCS). The
// CLI's -parallelism flag calls it once at startup.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultPar.Store(int64(n))
}

// Default returns the process-wide worker count (see SetDefault): the
// explicit SetDefault value if any, else PARATIME_PARALLELISM if set to
// a positive integer, else GOMAXPROCS.
func Default() int {
	if n := defaultPar.Load(); n > 0 {
		return int(n)
	}
	if v := os.Getenv(EnvVar); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Resolve maps a caller-supplied knob to an effective worker count:
// positive values pass through, everything else selects Default.
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// For runs f(i) for every i in [0, n) across at most workers
// goroutines and returns when all calls have finished (fork/join with
// an implicit barrier). Indices are handed out in ascending order.
// Calls must be independent: each index may only write state owned by
// that index, which is what makes the fan-out deterministic — the
// result vector is identical to the sequential loop regardless of
// schedule. workers <= 1 (or n <= 1) runs inline without spawning.
func For(workers, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ForErr is For over fallible work: it runs f(i) for every i in [0, n)
// across at most workers goroutines and returns the error of the
// lowest index that failed, so the reported failure does not depend on
// scheduling. Unlike engine.ForEach it keeps dispatching after a
// failure (items are cheap and independent; total work is bounded by
// n), which keeps the "which indices ran" set schedule-independent.
func ForErr(workers, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := f(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = f(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
