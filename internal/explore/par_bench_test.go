package explore

import (
	"fmt"
	"testing"

	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/sim"
)

func benchParSystem() (sim.System, []Input, Budget) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, L2: ptr(l2()), Mem: memctrl.DefaultConfig()}
	inputs := []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1, 2, 5, 9, 13}}}
	return sys, inputs, Budget{InitStates: 4} // 6 assignments x 4 patterns
}

// BenchmarkExplorePar prices the enumerated state space on a worker
// pool — the coarsest-grained parallel path, one full simulation per
// work item — at several worker counts; workers=1 runs inline.
func BenchmarkExplorePar(b *testing.B) {
	sys, inputs, budget := benchParSystem()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			states := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ExplorePar(sys, inputs, budget, workers)
				if err != nil {
					b.Fatal(err)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
		})
	}
}
