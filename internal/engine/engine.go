// Package engine provides concurrent batch WCET analysis: it fans
// independent (Task, SystemConfig) requests across a bounded worker pool
// and memoizes the expensive analysis prefix — assembled program → CFG +
// loop bounds → cache classification + compiled IPET skeleton, i.e.
// everything core.Prepare computes — under a content key, so repeated
// configurations (the same task priced under several bus arbiters, or
// re-analyzed by successive experiments) reuse the prepared artefacts
// instead of recomputing them. Because every copy of a memoized
// analysis shares one ipet.Skeleton, sweep re-pricings also share its
// optimal-basis anchor: the ILP structure is built once per task, not
// once per scenario, and a re-pricing whose vertex stays the unique
// optimum needs no pivot.
//
// PrepareAll clones, AnalyzeAll shares read-only. PrepareAll's callers
// go on to reclassify, bypass or lock, so each gets a private
// core.Analysis.Clone, which carries no pricing plan and compiles one
// per ComputeWCET. AnalyzeAll only prices: each request prices a
// shallow copy of the memo entry that carries its own task, system and
// WCET outputs and shares the classification state with the memo, so
// its results must not be changed. The memo entry compiles its pricing
// plan once, right after Prepare (core.Analysis.CompilePlan), and every
// shallow copy prices from that plan.
//
// Determinism is preserved by construction: each request's analysis runs
// the same single-threaded code the sequential path runs, on its own
// copy of the (immutable-prefix-sharing) prepared artefacts, and
// results are returned in request order. The engine therefore yields
// bit-identical WCETs to looping core.Analyze, at any worker count.
//
// The memo lives behind a pluggable cachestore.CacheBackend rather than
// a process-lifetime map: the default is an unbounded in-memory store,
// a size-bounded LRU caps memory for long sweeps (NewWithCache), and
// correctness never depends on the backend — a backend that declines or
// evicts entries merely costs a recomputation, because Prepare is
// deterministic and no consumer ever writes to a memo entry.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"paratime/internal/cachestore"
	"paratime/internal/core"
	"paratime/internal/parallel"
)

// Request is one unit of batch analysis.
type Request struct {
	Task core.Task
	Sys  core.SystemConfig
}

// Engine is a concurrent batch analyzer with a memoized prepare cache.
// The zero value is not ready; use New or NewWithCache. An Engine is
// safe for concurrent use, including nested calls from requests it is
// itself running.
type Engine struct {
	workers int

	// mu serializes the get-or-create step on the memo backend so one
	// Prepare is latched per key even under concurrent first requests.
	mu   sync.Mutex
	memo cachestore.CacheBackend
}

// memoEntry latches one Prepare computation; once guarantees the work
// runs exactly once even when many workers request the same key.
type memoEntry struct {
	once sync.Once
	a    *core.Analysis
	err  error
}

// New returns an engine running at most workers concurrent analyses
// with an unbounded in-memory memo; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine {
	return NewWithCache(workers, nil)
}

// NewWithCache returns an engine whose Prepare memo sits on the given
// cache backend; nil selects an unbounded in-memory store. A
// size-bounded cachestore.Memory caps the memo's footprint for long
// sweeps (peak entries never exceed its capacity) at the cost of
// re-preparing evicted keys; output is bit-identical under any backend,
// including one that never retains anything — memo entries are live
// objects, so byte-oriented backends (disk tiers) simply decline them
// and every request re-prepares.
func NewWithCache(workers int, memo cachestore.CacheBackend) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if memo == nil {
		memo = cachestore.NewMemory(0)
	}
	return &Engine{workers: workers, memo: memo}
}

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.workers }

// Stats reports memo cache hits and misses so far.
func (e *Engine) Stats() (hits, misses uint64) {
	st := e.memo.Stats()
	return st.Hits, st.Misses
}

// ReuseRatio reports the Prepare-memo reuse ratio hits/(hits+misses):
// the fraction of prepare requests answered from memoized artefacts
// instead of recomputing the Prepare prefix. 0 before any lookup. A
// sweep that varies only parameters outside core.PrepareKey (bus
// delays, memory latencies, pipeline timings) approaches 1 as the
// point count grows.
func (e *Engine) ReuseRatio() float64 {
	hits, misses := e.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Reset drops every memoized artefact (e.g. between unrelated sweeps, to
// bound memory) on backends that support it; hit/miss counters are kept.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.memo.(cachestore.Resetter); ok {
		r.Reset()
	}
}

// memoized returns the memoized prepared analysis for the request,
// computing and caching it on first use. The result is the memo entry
// itself: callers copy it (Clone, or a shallow copy for read-only
// pricing) and never change it.
func (e *Engine) memoized(task core.Task, sys core.SystemConfig) (*core.Analysis, error) {
	key := core.PrepareKey(task, sys)
	e.mu.Lock()
	var ent *memoEntry
	if v, ok := e.memo.Get(key); ok {
		// A foreign value type under our key (possible only when a
		// byte-oriented backend is shared with other producers) is
		// recomputed in place.
		ent, _ = v.(*memoEntry)
	}
	if ent == nil {
		ent = &memoEntry{}
		e.memo.Put(key, ent)
	}
	e.mu.Unlock()
	ran := false
	ent.once.Do(func() {
		ran = true
		if ent.a, ent.err = core.Prepare(task, sys); ent.err == nil {
			ent.a.CompilePlan() // entries are never reclassified; copies share it
		}
	})
	if ent.err != nil {
		if ran {
			return nil, ent.err
		}
		// A cached failure carries the first requester's task name; re-run
		// Prepare (cold path) so the error is attributed to this request
		// and batch error reporting stays deterministic.
		if _, err := core.Prepare(task, sys); err != nil {
			return nil, err
		}
		return nil, ent.err
	}
	return ent.a, nil
}

// prepare returns a private clone of the memoized prepared analysis for
// the request. The clone carries the request's own task identity and
// full system configuration (the memo key deliberately excludes
// pipeline and bus/memory latencies — see core.PrepareKey).
func (e *Engine) prepare(task core.Task, sys core.SystemConfig) (*core.Analysis, error) {
	a, err := e.memoized(task, sys)
	if err != nil {
		return nil, err
	}
	c := a.Clone()
	c.Task = task
	c.Sys = sys
	return c, nil
}

// price returns a fully priced analysis for the request on a shallow
// copy of the memoized entry: the copy carries the request's own task,
// system and WCET outputs, and shares everything else with the entry
// and with every other priced copy, read-only. ComputeWCET only reads
// the classification state (CAC, Bypass, L2Override, L2, ExtraEvents)
// and the entry's pricing plan, so no deep copy is needed to price it.
func (e *Engine) price(task core.Task, sys core.SystemConfig) (*core.Analysis, error) {
	a, err := e.memoized(task, sys)
	if err != nil {
		return nil, err
	}
	c := *a
	c.Task = task
	c.Sys = sys
	if err := c.ComputeWCET(); err != nil {
		return nil, fmt.Errorf("task %s: %w", task.Name, err)
	}
	return &c, nil
}

// batch runs one analysis step per request across the pool, returning
// results in request order.
func (e *Engine) batch(ctx context.Context, reqs []Request, step func(Request) (*core.Analysis, error)) ([]*core.Analysis, error) {
	out := make([]*core.Analysis, len(reqs))
	err := parallel.For(ctx, e.workers, len(reqs), func(i int) error {
		a, err := step(reqs[i])
		if err != nil {
			return err
		}
		out[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrepareAll runs the analysis prefix (through cache classification) for
// every request, sharing memoized artefacts. Each returned Analysis is a
// private clone: interference, bypass or locking adjustments on one
// never leak into another. A cancelled ctx stops dispatch and returns
// ctx.Err().
func (e *Engine) PrepareAll(ctx context.Context, reqs []Request) ([]*core.Analysis, error) {
	return e.batch(ctx, reqs, func(r Request) (*core.Analysis, error) {
		return e.prepare(r.Task, r.Sys)
	})
}

// AnalyzeAll runs the complete static WCET analysis for every request.
// Results are in request order and bit-identical to calling core.Analyze
// sequentially per request. A cancelled ctx stops dispatch and returns
// ctx.Err().
//
// The results are read-only. Each carries its own Task, Sys and WCET
// outputs (WCET, IPET, Pipe), but shares its classification state (the
// L2 result, CAC, Bypass, L2Override, ExtraEvents) and its pricing plan
// with the memo and with every other result of the same
// core.PrepareKey. Reading them and
// calling ComputeWCET again are safe; a caller that reclassifies,
// bypasses or locks must use PrepareAll, or Clone a result first.
func (e *Engine) AnalyzeAll(ctx context.Context, reqs []Request) ([]*core.Analysis, error) {
	return e.batch(ctx, reqs, func(r Request) (*core.Analysis, error) {
		return e.price(r.Task, r.Sys)
	})
}

// Analyze is the single-request convenience: one fully priced analysis,
// still sharing the engine's memo cache. Like AnalyzeAll's, the result
// is read-only.
func (e *Engine) Analyze(ctx context.Context, task core.Task, sys core.SystemConfig) (*core.Analysis, error) {
	as, err := e.AnalyzeAll(ctx, []Request{{Task: task, Sys: sys}})
	if err != nil {
		return nil, err
	}
	return as[0], nil
}

// Requests builds a request batch pairing every task with one system
// configuration (the common suite / joint-analysis shape).
func Requests(tasks []core.Task, sys core.SystemConfig) []Request {
	reqs := make([]Request, len(tasks))
	for i, t := range tasks {
		reqs[i] = Request{Task: t, Sys: sys}
	}
	return reqs
}
