package core_test

import (
	"testing"

	"paratime/internal/core"
	"paratime/internal/workload"
)

// BenchmarkComputeWCET measures the pricing phase alone — pipeline
// costing plus the IPET solve — on a clone of one prepared analysis.
// This is exactly the per-variant work the batch engine repeats for
// every interference/bypass/locking/arbiter scenario of a memoized
// task, so it is the number the sparse ILP core and skeleton reuse
// exist to shrink.
func BenchmarkComputeWCET(b *testing.B) {
	sys := core.DefaultSystem()
	task := workload.MatMult(4, workload.Slot(1))
	a, err := core.Prepare(task, sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := a.Clone()
		if err := c.ComputeWCET(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeWCETSweep re-prices one prepared task under eight bus
// delays, the shape of the arbiter sweeps (e9/e12/e13): the prepared
// prefix is shared, only block costs and event penalties change, so the
// whole benchmark is ComputeWCET-bound.
func BenchmarkComputeWCETSweep(b *testing.B) {
	sys := core.DefaultSystem()
	task := workload.CRC(16, workload.Slot(3))
	a, err := core.Prepare(task, sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for delay := 0; delay < 8; delay++ {
			c := a.Clone()
			c.Sys.Mem.BusDelay = delay
			if err := c.ComputeWCET(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPrepareKey builds the Prepare memo key of every suite task
// under the default system: the per-task, per-point cost the batch
// engine pays on each memo lookup.
func BenchmarkPrepareKey(b *testing.B) {
	sys := core.DefaultSystem()
	tasks := workload.Suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, task := range tasks {
			_ = core.PrepareKey(task, sys)
		}
	}
}

// BenchmarkPrepareKeyKeyed is BenchmarkPrepareKey over Keyed tasks, the
// key a sweep point's memo lookup builds: no fingerprinting, only the
// key itself.
func BenchmarkPrepareKeyKeyed(b *testing.B) {
	sys := core.DefaultSystem()
	tasks := workload.Suite()
	for i := range tasks {
		tasks[i] = core.Keyed(tasks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, task := range tasks {
			_ = core.PrepareKey(task, sys)
		}
	}
}
