// Command paratime is the toolkit's CLI: assemble programs, inspect
// CFGs, compute WCETs, simulate, run declarative analysis scenarios,
// and run the survey-reproduction experiments.
//
// Usage:
//
//	paratime asm  <file.s>          assemble and disassemble
//	paratime cfg  <file.s>          dump the CFG, loops and bounds
//	paratime wcet <file.s>          static WCET analysis (default system)
//	paratime sim  <file.s>          cycle-accurate solo simulation
//	paratime suite                  analyze + simulate the benchmark suite
//	paratime run  [-json] [-parallelism n] <file...|->  run scenario file(s)
//	                                (see export); -parallelism sets the
//	                                explore-pricing workers of each
//	                                analysis (results are identical at
//	                                any value)
//	paratime export <exp-id>|all    dump experiment(s) as scenario JSON
//	paratime exp  <id>|all          run experiment(s), e.g. e4 (see list)
//	paratime tightness [-update] [file]  check (or rewrite) the precision
//	                                baseline, default TIGHTNESS.json
//	paratime sweep [flags] <sweep.json|->  stream a scenario product-space
//	                                ("sweep": 1): one result line per
//	                                point, artefact reuse across points,
//	                                incremental re-runs via -cache-dir
//	paratime serve [flags]          HTTP analysis service (POST /v1/analyze)
//	paratime list                   list experiments
//
// Scenario files carry schema version 1 ("spec": 1); `paratime export
// all | paratime run -` replays every exportable experiment regime
// through the Scenario API. An interrupt (Ctrl-C) stops dispatching
// further batch work promptly; items already in flight finish first.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"paratime"
	"paratime/internal/cfg"
	"paratime/internal/engine"
	"paratime/internal/experiments"
	"paratime/internal/flow"
	"paratime/internal/parallel"
	"paratime/internal/spec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paratime:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "asm":
		return withProg(args, func(p *paratime.Program) error {
			fmt.Print(p.Disassemble())
			return nil
		})
	case "cfg":
		return withProg(args, func(p *paratime.Program) error {
			g, err := cfg.Build(p)
			if err != nil {
				return err
			}
			if _, _, err := flow.BoundAll(g, nil); err != nil {
				fmt.Fprintln(os.Stderr, "note:", err)
			}
			fmt.Print(g.Dump())
			return nil
		})
	case "wcet":
		return withProg(args, func(p *paratime.Program) error {
			a, err := paratime.Analyze(paratime.Task{Name: p.Name, Prog: p}, paratime.DefaultSystem())
			if err != nil {
				return err
			}
			fmt.Printf("WCET      %d cycles\n", a.WCET)
			fmt.Printf("classes   %s\n", a.ClassSummary())
			fmt.Printf("ILP       %d vars, %d constraints, %d nodes\n",
				a.IPET.Vars, a.IPET.Cons, a.IPET.Nodes)
			return nil
		})
	case "sim":
		return withProg(args, func(p *paratime.Program) error {
			sys := paratime.DefaultSystem()
			s := paratime.BuildSim(sys, paratime.DefaultMemConfig(), nil, false,
				paratime.Task{Name: p.Name, Prog: p})
			res, err := paratime.Simulate(s, 1_000_000_000)
			if err != nil {
				return err
			}
			st := res.Stats[0]
			fmt.Printf("cycles    %d\nretired   %d\nL1I h/m   %d/%d\nL1D h/m   %d/%d\nL2 h/m    %d/%d\n",
				st.Cycles, st.Retired, st.L1IHits, st.L1IMisses,
				st.L1DHits, st.L1DMisses, st.L2Hits, st.L2Misses)
			return nil
		})
	case "suite":
		// Analyses fan out across the batch engine's worker pool and the
		// validation simulations across a matching pool; results print in
		// task order, byte-identical to the sequential loop.
		sys := paratime.DefaultSystem()
		tasks := paratime.Suite()
		eng := paratime.DefaultEngine()
		as, err := eng.AnalyzeAll(ctx, engine.Requests(tasks, sys))
		if err != nil {
			return err
		}
		sims := make([]*paratime.SimResult, len(tasks))
		err = engine.ForEach(ctx, 0, len(tasks), func(i int) error {
			s := paratime.BuildSim(sys, paratime.DefaultMemConfig(), nil, false, tasks[i])
			res, err := paratime.Simulate(s, 1_000_000_000)
			if err != nil {
				return err
			}
			sims[i] = res
			return nil
		})
		if err != nil {
			return err
		}
		for i, task := range tasks {
			fmt.Printf("%-12s WCET %8d   sim %8d   %s\n",
				task.Name, as[i].WCET, sims[i].Cycles(0), as[i].ClassSummary())
		}
		return nil
	case "run":
		return runScenarios(ctx, args[1:])
	case "export":
		if len(args) < 2 {
			return fmt.Errorf("export wants an experiment id or 'all' (exportable: %s)",
				strings.Join(experiments.ExportableIDs(), " "))
		}
		var (
			scs []*spec.Scenario
			err error
		)
		if args[1] == "all" {
			scs, err = experiments.ExportAll()
		} else {
			scs, err = experiments.Export(strings.ToLower(args[1]))
		}
		if err != nil {
			return err
		}
		out, err := spec.EncodeAll(scs)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	case "exp":
		return runExperiments(ctx, args[1:])
	case "tightness":
		return runTightness(args[1:])
	case "sweep":
		return runSweep(ctx, args[1:])
	case "serve":
		return runServe(ctx, args[1:])
	case "list":
		for _, id := range experiments.IDs {
			fmt.Println(id)
		}
		return nil
	default:
		return usage()
	}
}

// runScenarios decodes scenario file(s) (or stdin with "-") and runs
// every scenario in them through the Scenario API.
func runScenarios(ctx context.Context, args []string) error {
	asJSON := false
flags:
	for len(args) > 0 {
		switch {
		case args[0] == "-json":
			asJSON = true
			args = args[1:]
		case args[0] == "-parallelism" && len(args) > 1:
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 0 {
				return fmt.Errorf("run: -parallelism wants a non-negative integer, got %q", args[1])
			}
			parallel.SetDefault(n)
			args = args[2:]
		default:
			break flags
		}
	}
	if len(args) < 1 {
		return fmt.Errorf("run wants scenario file(s) (or '-' for stdin)")
	}
	var scs []*spec.Scenario
	for _, path := range args {
		var (
			data []byte
			err  error
		)
		if path == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		if err != nil {
			return err
		}
		decoded, err := spec.DecodeAll(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		scs = append(scs, decoded...)
	}
	for i, sc := range scs {
		rep, err := paratime.Run(ctx, sc)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.String(), err)
		}
		if asJSON {
			out, err := rep.Encode()
			if err != nil {
				return err
			}
			if _, err := os.Stdout.Write(out); err != nil {
				return err
			}
			continue
		}
		rep.Fprint(os.Stdout)
		if i < len(scs)-1 {
			fmt.Println()
		}
	}
	return nil
}

// runExperiments runs the requested experiments concurrently and prints
// one status block per id: the result table, or FAILED with the error,
// or skipped (not dispatched after an earlier failure) — so a mid-batch
// failure can no longer silently swallow which ids never ran.
func runExperiments(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("exp wants an experiment id or 'all'")
	}
	ids := args
	if args[0] == "all" {
		ids = experiments.IDs
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runner, ok := experiments.All[strings.ToLower(id)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'paratime list')", id)
		}
		runners[i] = runner
	}
	results := make([]*experiments.Result, len(ids))
	errs := make([]error, len(ids))
	runErr := engine.ForEach(ctx, 0, len(ids), func(i int) error {
		res, err := runners[i]()
		if err != nil {
			errs[i] = err
			return fmt.Errorf("%s: %w", ids[i], err)
		}
		results[i] = res
		return nil
	})
	nFailed, nSkipped := 0, 0
	for i, res := range results {
		switch {
		case res != nil:
			res.Table.Fprint(os.Stdout)
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("   %s = %g\n", k, res.Metrics[k])
			}
			fmt.Println()
		case errs[i] != nil:
			nFailed++
			fmt.Printf("%s: FAILED: %v\n\n", ids[i], errs[i])
		default:
			nSkipped++
			fmt.Printf("%s: skipped (not dispatched after earlier failure or cancellation)\n\n", ids[i])
		}
	}
	if runErr != nil {
		return fmt.Errorf("%d experiment(s) failed, %d skipped: %w", nFailed, nSkipped, runErr)
	}
	return nil
}

// runTightness recomputes the exploration precision baseline and either
// gates against the committed TIGHTNESS.json (CI mode) or rewrites it
// (-update). The gate fails on loosened bounds, exact-worst drift, or a
// soundness break (exact > bound).
func runTightness(args []string) error {
	update := false
	if len(args) > 0 && args[0] == "-update" {
		update = true
		args = args[1:]
	}
	path := "TIGHTNESS.json"
	if len(args) > 0 {
		path = args[0]
	}
	current, err := experiments.TightnessAll()
	if err != nil {
		return err
	}
	if update {
		out, err := experiments.EncodeTightness(current)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("tightness: wrote %d entr%s to %s\n", len(current), plural(len(current), "y", "ies"), path)
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (record a baseline with `paratime tightness -update`)", err)
	}
	baseline, err := experiments.DecodeTightness(data)
	if err != nil {
		return err
	}
	if err := experiments.CheckTightness(current, baseline); err != nil {
		return err
	}
	fmt.Printf("tightness: OK, %d entr%s match %s\n", len(current), plural(len(current), "y", "ies"), path)
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func withProg(args []string, f func(*paratime.Program) error) error {
	if len(args) < 2 {
		return fmt.Errorf("%s wants an assembly file", args[0])
	}
	src, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	p, err := paratime.Assemble(args[1], string(src))
	if err != nil {
		return err
	}
	return f(p)
}

func usage() error {
	return fmt.Errorf("usage: paratime asm|cfg|wcet|sim <file.s> | suite | run [-json] [-parallelism explore-workers] <scenario.json...|-> | export <id>|all | exp <id>|all | tightness [-update] [file] | sweep [-json] [-parallelism point-workers] [-cache-dir d] [-out f] [-unordered] <sweep.json|-> | serve [-addr a] [-cache-dir d] [-max-inflight n] [-queue n] [-timeout d] [-parallelism explore-workers] | list")
}
