// SMT isolation study: CarCore-style HRT priority and the PRET
// thread-interleaved pipeline (§5.3): the protected thread's timing is
// invariant under every co-runner mix.
package main

import (
	"context"
	"fmt"
	"log"

	"paratime"
	"paratime/internal/smt"
	"paratime/internal/workload"
)

func main() {
	// CarCore: HRT timing == solo timing, whatever the NHRTs do.
	sys := paratime.DefaultSystem()
	hrt := workload.CRC(12, workload.Slot(0))
	s := paratime.BuildSim(sys, paratime.DefaultMemConfig(), nil, false, hrt)
	solo, err := paratime.Simulate(s, 100_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("CarCore (one HRT + non-critical threads):")
	for n := 0; n <= 3; n++ {
		var nhrts []*paratime.Program
		for i := 0; i < n; i++ {
			nhrts = append(nhrts, workload.Fib(50+10*i, workload.Slot(4+i)).Prog)
		}
		res, err := smt.SimulateCarCore(solo.Cycles(0), solo.Stats[0].Retired, nhrts, 10_000_000)
		if err != nil {
			log.Fatal(err)
		}
		var retired uint64
		for _, r := range res.NHRTRetired {
			retired += r
		}
		fmt.Printf("  %d NHRTs: HRT %d cycles (invariant), NHRTs retired %d insts\n",
			n, res.HRTCycles, retired)
	}

	// PRET: per-thread timing invariant by construction. Each co-runner
	// mix is one pret scenario with a sim block.
	fmt.Println("\nPRET thread-interleaved pipeline:")
	tasks := []paratime.Task{workload.CRC(8, workload.Slot(0))}
	for n := 0; n <= 5; n++ {
		sc := &paratime.Scenario{Spec: paratime.SpecVersion, System: paratime.DefaultScenarioSystem(), Sim: &paratime.ScenarioSim{},
			Mode: paratime.ScenarioMode{Kind: paratime.ModePRET, PRET: &paratime.ScenarioPRET{Threads: 6, WheelWindow: 26, MemLatency: 20}}}
		for _, task := range tasks {
			st, err := paratime.ScenarioTaskOf(task)
			if err != nil {
				log.Fatal(err)
			}
			sc.Tasks = append(sc.Tasks, st)
		}
		rep, err := paratime.Run(context.Background(), sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d co-runners: victim %d cycles (static bound %d)\n", n, rep.Sim[0].Cycles, rep.Tasks[0].WCET)
		tasks = append(tasks, workload.CountBits(4+n, workload.Slot(6+n)))
	}
}
