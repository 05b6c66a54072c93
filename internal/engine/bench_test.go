package engine

import (
	"context"
	"testing"

	"paratime/internal/core"
	"paratime/internal/workload"
)

// BenchmarkSuiteSequential is the baseline: the benchmark suite analyzed
// one task at a time, as the pre-engine CLI did.
func BenchmarkSuiteSequential(b *testing.B) {
	sys := testSys()
	tasks := workload.Suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, task := range tasks {
			if _, err := core.Analyze(task, sys); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuitePooled fans the suite across the worker pool with a cold
// memo each iteration: on >= 2 cores the wall-clock per op drops below
// the sequential baseline (the memo contributes nothing here — every key
// is distinct within an iteration).
func BenchmarkSuitePooled(b *testing.B) {
	sys := testSys()
	reqs := Requests(workload.Suite(), sys)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(0).AnalyzeAll(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuitePooledWarm reuses one engine across iterations, so every
// analysis after the first round hits the memoized prepare prefix and
// pays only for pricing — the repeated-configuration case the memo
// exists for (e.g. one task swept over several arbiters).
func BenchmarkSuitePooledWarm(b *testing.B) {
	sys := testSys()
	reqs := Requests(workload.Suite(), sys)
	e := New(0)
	if _, err := e.AnalyzeAll(context.Background(), reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AnalyzeAll(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeAllWarm prices one warm task set — the suite, keyed
// once as a sweep keys it — at 16 bus delays: the memo-hit path of a
// sweep point, where every request prices a shallow copy of its memo
// entry from the entry's pricing plan.
func BenchmarkAnalyzeAllWarm(b *testing.B) {
	tasks := workload.Suite()
	for i := range tasks {
		tasks[i] = core.Keyed(tasks[i])
	}
	var reqs []Request
	for delay := 0; delay < 16; delay++ {
		sys := testSys()
		sys.Mem.BusDelay = delay
		reqs = append(reqs, Requests(tasks, sys)...)
	}
	e := New(1)
	if _, err := e.AnalyzeAll(context.Background(), reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AnalyzeAll(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}
