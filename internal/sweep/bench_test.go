package sweep

import (
	"context"
	"testing"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/spec"
)

// benchSweep is a 24-point system-parameter sweep over one task set:
// every point shares one core.PrepareKey, so artefact reuse carries the
// whole run after the first point.
func benchSweep() *spec.SweepDoc {
	return &spec.SweepDoc{
		Sweep: spec.SweepVersion,
		Name:  "bench",
		Base: spec.Scenario{
			Spec:   spec.Version,
			Name:   "bench",
			System: spec.DefaultSystemSpec(),
			Mode:   spec.ModeSpec{Kind: spec.KindSolo},
		},
		Axes: spec.SweepAxes{
			TaskSets:   []string{"crc16"},
			BusDelay:   []int{0, 5, 10, 15, 20, 25},
			MemLatency: []int{50, 60, 70, 80},
		},
	}
}

func runBench(b *testing.B, doc *spec.SweepDoc, opt Options) *Summary {
	b.Helper()
	sum, err := Run(context.Background(), doc, opt, func(Line) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	if sum.Errors > 0 {
		b.Fatalf("%d point errors", sum.Errors)
	}
	return sum
}

// BenchmarkSweepNoReuse is the pre-sweep-harness baseline: every point
// priced through its own engine, so nothing is shared — the Prepare
// prefix is recomputed 24 times. The gap to BenchmarkSweepCold is the
// differential artefact reuse win.
func BenchmarkSweepNoReuse(b *testing.B) {
	doc := benchSweep()
	n := doc.Points()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			pt, err := doc.Point(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := spec.Run(context.Background(), pt.Scenario, engine.New(0)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepCold prices the sweep with a fresh engine and no
// manifest every iteration: the no-reuse-across-iterations baseline
// (within one iteration the Prepare memo still carries 23 of 24
// points — that is the tentpole's differential reuse).
func BenchmarkSweepCold(b *testing.B) {
	doc := benchSweep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum := runBench(b, doc, Options{Engine: engine.New(0)})
		if sum.PrepareMisses != 1 {
			b.Fatalf("cold run misses = %d, want 1", sum.PrepareMisses)
		}
	}
}

// BenchmarkSweepWarm shares one engine across iterations: after the
// first iteration every Prepare is a hit, isolating per-point pricing
// cost.
func BenchmarkSweepWarm(b *testing.B) {
	doc := benchSweep()
	eng := engine.New(0)
	runBench(b, doc, Options{Engine: eng}) // prime the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := runBench(b, doc, Options{Engine: eng})
		if sum.PrepareMisses != 0 {
			b.Fatalf("warm run misses = %d", sum.PrepareMisses)
		}
	}
}

// BenchmarkSweepIncremental re-runs against a primed manifest: every
// point answers from the fingerprint store without touching the
// engine — the incremental re-analysis fast path.
func BenchmarkSweepIncremental(b *testing.B) {
	doc := benchSweep()
	disk, err := cachestore.NewDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	runBench(b, doc, Options{Engine: engine.New(0), Manifest: disk}) // prime the manifest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := runBench(b, doc, Options{Engine: engine.New(0), Manifest: disk})
		if sum.ManifestHits != sum.Points {
			b.Fatalf("incremental run hits = %d of %d", sum.ManifestHits, sum.Points)
		}
	}
}

// BenchmarkSweepTaskSets is the shape of perfbench's sweep workload at
// fixed axis values: three task sets ("suite", "fib24+crc16",
// "matmult4+bsort12+fir16x4") × 4 bus delays × 4 memory latencies, 48
// points priced one at a time through a fresh one-worker engine per op.
// Each set is prepared once, so the op is dominated by what every point
// repeats: building and keying its tasks, copying the memo entry,
// pricing, and formatting its report.
func BenchmarkSweepTaskSets(b *testing.B) {
	doc := benchSweep()
	doc.Axes = spec.SweepAxes{
		TaskSets:   []string{"suite", "fib24+crc16", "matmult4+bsort12+fir16x4"},
		BusDelay:   []int{3, 9, 17, 40},
		MemLatency: []int{25, 60, 90, 150},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runBench(b, doc, Options{Engine: engine.New(1), Parallelism: 1})
	}
}
