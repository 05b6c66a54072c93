package explore

import (
	"fmt"
	"testing"

	"paratime/internal/core"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/sim"
)

// FuzzExploreWitness mutates program shape, input domains and budgets,
// and checks the explorer's contract on every variant: ExplorePar at
// workers 1 and 3 matches the sequential oracle (results, witnesses and
// error text), the witness replays via sim.Run to exactly ExactWorst,
// and the exact worst never exceeds the static bound.
func FuzzExploreWitness(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(1), uint8(2), uint8(8))
	f.Add(uint8(5), uint8(4), uint8(0), uint8(3), uint8(16))
	f.Add(uint8(2), uint8(1), uint8(7), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, outerB, strideB, valB, patB, decB uint8) {
		outer := 1 + int(outerB%6)
		stride := 4 * (1 + int(strideB%6))
		v := int32(valB % 8)
		p := isa.MustAssemble("fuzz", fmt.Sprintf(`
        li   r2, %d
        li   r6, 0x8000
loop:   beq  r1, r0, even
        mul  r4, r2, r2
        j    join
even:   add  r4, r4, r2
join:   ld   r5, 0(r6)
        add  r4, r4, r5
        st   r4, 0(r6)
        addi r6, r6, %d
        addi r2, r2, -1
        bne  r2, r0, loop
        halt`, outer, stride))
		sys := sim.System{Cores: []sim.CoreConfig{simCore("f", p)}, L2: ptr(l2()), Mem: memctrl.DefaultConfig()}
		inputs := []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, v, v + 1}}}
		b := Budget{
			InitStates:         1 + int(patB%4),
			MaxBranchDecisions: 1 + int(decB%24),
		}
		res, err := oracleExplore(sys, inputs, b)
		for _, workers := range []int{1, 3} {
			got, gotErr := ExplorePar(sys, inputs, b, workers)
			requireSameExplore(t, fmt.Sprintf("workers %d", workers), res, err, got, gotErr)
		}
		if err != nil {
			// Budgets can legitimately exclude every trace; that must be
			// an explicit error, never a silent empty result.
			return
		}
		rep, err := Replay(sys, res.Witness[0].Init, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles(0) != res.ExactWorst[0] {
			t.Fatalf("witness replays to %d, want exactly %d (witness %+v)",
				rep.Cycles(0), res.ExactWorst[0], res.Witness[0])
		}
		a, err := core.Analyze(core.Task{Name: "f", Prog: p}, staticSys(0, ptr(l2())))
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactWorst[0] > a.WCET {
			t.Fatalf("UNSOUND: exact worst %d above static bound %d", res.ExactWorst[0], a.WCET)
		}
	})
}
