package explore

import (
	"testing"

	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/sim"
)

// BenchmarkExplore prices a 3-input x 4-pattern state space per
// iteration at one worker and reports the exploration throughput in
// states/sec — the number CI's bench smoke watches.
func BenchmarkExplore(b *testing.B) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, L2: ptr(l2()), Mem: memctrl.DefaultConfig()}
	inputs := []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1, 5}}}
	budget := Budget{InitStates: 4}
	states := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ExplorePar(sys, inputs, budget, 1)
		if err != nil {
			b.Fatal(err)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
}
