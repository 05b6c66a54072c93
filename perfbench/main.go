// Command perfbench is paratime's end-to-end and per-layer benchmark.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
//
// It drives paratime through the public functions of its packages
// (spec.Run, sweep.Run, server.New behind httptest), checks every output
// against invariants and committed digests, and prints one JSON object as
// the last line of standard output. With --trace 0 the object carries the
// end-to-end metrics named in BENCHMARK.json, measured with tracing off;
// with --trace 1 it carries the per-layer split from a separate traced
// replay of each op through the layer functions (see replay.go). A line
// before it records the host and the workload's configuration.
//
// Workloads (their reasons are recorded in perfbench/PLAN.json):
//
//	corpus  closed loop: one op is one pass of every exported scenario
//	sweep   closed loop: one op is one cold 48-point sweep.Run
//	serve   open loop at a fixed rate against an in-process server
//	large   closed loop: one op is one solo scenario over a generated task
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "corpus, sweep, serve or large")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives byte-identical inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	variant := flag.String("variant", "", "ungated configuration note: large-par1 or sweep-w2")
	updateDigests := flag.Bool("update-digests", false, "record the reference-seed output digests in perfbench/digests.json")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	if *updateDigests {
		return writeDigests()
	}
	cfg, ok := configs[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want corpus, sweep, serve or large)", *workload)
	}
	if err := cfg.applyVariant(*variant); err != nil {
		return err
	}
	tightness, err := loadTightness()
	if err != nil {
		return err
	}
	b, err := newBench(cfg, *seed, *seconds, tightness)
	if err != nil {
		return err
	}
	info, err := json.Marshal(map[string]any{"host": hostInfo(*seed), "config": cfg})
	if err != nil {
		return err
	}
	fmt.Println(string(info))

	ctx := context.Background()
	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, b, *seconds)
	} else {
		res, err = runTimed(ctx, b, *seconds)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// config is one workload's fixed configuration; it is printed with every
// result so that numbers from different hosts or settings are never
// compared unknowingly.
type config struct {
	Workload      string  `json:"workload"`
	Loop          string  `json:"loop"`
	EngineWorkers int     `json:"engine_workers"`
	SweepWorkers  int     `json:"sweep_workers,omitempty"`
	Parallelism   int     `json:"intra_analysis_parallelism"`
	MaxInflight   int     `json:"serve_max_inflight,omitempty"`
	Conns         int     `json:"serve_connections,omitempty"`
	Rate          float64 `json:"serve_rate_per_s,omitempty"`
	RepeatShare   float64 `json:"serve_repeat_share,omitempty"`
	Variant       string  `json:"variant,omitempty"`
}

var configs = map[string]config{
	"corpus": {Workload: "corpus", Loop: "closed, 1 client", EngineWorkers: 1, Parallelism: 1},
	"sweep":  {Workload: "sweep", Loop: "closed, 1 client", EngineWorkers: 1, SweepWorkers: 1, Parallelism: 1},
	"serve": {Workload: "serve", Loop: "open, fixed rate", EngineWorkers: 1, Parallelism: 1,
		MaxInflight: 2, Conns: 2, Rate: serveRate, RepeatShare: serveRepeatShare},
	"large": {Workload: "large", Loop: "closed, 1 client", EngineWorkers: 1, Parallelism: 2},
}

// applyVariant switches to one of the two measured-once configurations
// that the plan records without gating on them.
func (c *config) applyVariant(v string) error {
	switch {
	case v == "":
	case v == "large-par1" && c.Workload == "large":
		c.Parallelism = 1
	case v == "sweep-w2" && c.Workload == "sweep":
		c.SweepWorkers = 2
	default:
		return fmt.Errorf("--variant %q does not apply to workload %q", v, c.Workload)
	}
	c.Variant = v
	return nil
}

// hostInfo describes the machine a result was measured on.
func hostInfo(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
