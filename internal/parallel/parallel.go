// Package parallel provides the one bounded fork/join primitive, For: a
// deterministic, cancellable, ordered fan-out of independent
// index-addressed work items across a capped number of goroutines. It
// also holds the process-wide worker-count knob the CLI and the analysis
// service wire their -parallelism flags into.
//
// Within one analysis the only parallel step is explore pricing
// (explore.ExplorePar), one implementation at every worker count: For
// runs it inline at one worker. The cache and pipeline fixpoints run
// sequentially, because their parallel schedules never beat the
// sequential worklists. Across analyses, the batch engine, the CLI's
// experiment runner and scenario execution (per-task analyses and
// simulations, SMT and PRET bounds) fan out with For under the
// engine's worker bound. The sweep driver prices its points with For
// too; its closures share only a mutex-guarded reorder buffer that
// emits lines by index, so its output does not depend on the schedule
// either.
//
// The determinism contract: work items are independent (each index
// writes only its own slot of a result vector, and shares only
// read-only inputs with other indices), and reductions happen after the
// barrier in index order. The parallel schedule therefore produces
// bit-identical results to the sequential loop at any worker count,
// which the explore differential tests check against a sequential
// oracle at several worker counts.
package parallel

import (
	"context"
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

// For runs f(i) for every i in [0, n) across at most workers goroutines
// (workers <= 0 selects GOMAXPROCS; 1 runs inline without spawning) and
// returns once every dispatched call has finished. Indices are claimed in
// ascending order. After a call fails, or once ctx is cancelled, no
// further index is claimed; in-flight calls complete. For returns the
// error of the lowest failing index, else ctx.Err(): every index below
// the first failure was claimed before it and so ran, which keeps the
// reported error independent of scheduling.
//
// Calls must be independent: each index may only write state owned by
// that index, which is what makes the fan-out deterministic — the result
// vector is identical to the sequential loop regardless of schedule.
func For(ctx context.Context, workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = f(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
