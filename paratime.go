// Package paratime is a self-contained toolkit for the static worst-case
// execution time (WCET) analysis of tasks on parallel architectures —
// multicores with shared caches and buses, and multithreaded cores — as
// surveyed by Rochange, "An Overview of Approaches Towards the Timing
// Analysability of Parallel Architectures" (PPES 2011).
//
// The toolkit implements the full static analysis stack of the survey's
// §2 (CFG reconstruction, loop-bound derivation, Must/May/Persistence
// cache abstract interpretation, context-parameterized pipeline costing,
// IPET over an exact rational ILP solver) and every family of approaches
// from §3–§5: joint shared-cache analyses (Yan & Zhang; Li et al. with
// lifetime refinement; Hardy et al. bypass), statically-controlled
// sharing (cache partitioning, locking, TDMA bus schedules), and task
// isolation (round-robin and multi-bandwidth arbiters, CarCore-style HRT
// priority, the PRET thread-interleaved pipeline with its memory wheel).
// A deterministic cycle-accurate multicore simulator validates every
// bound.
//
// Batches of independent analyses run concurrently through the engine
// (NewEngine, Engine.AnalyzeAll): requests fan out across a bounded
// worker pool and the expensive analysis prefix is memoized by content,
// with results bit-identical to the sequential path.
//
// The primary entry point is the Scenario API: a Scenario declaratively
// captures an entire analysis request — tasks, system configuration,
// sharing regime, optional simulation validation — with lossless JSON
// encoding and strict validation, and Run executes it under a
// context.Context:
//
//	sc := &paratime.Scenario{
//	        Spec: paratime.SpecVersion,
//	        Name: "quickstart",
//	        Tasks: []paratime.ScenarioTask{{Name: "demo", Source: `
//	        li   r1, 10
//	loop:   addi r1, r1, -1
//	        bne  r1, r0, loop
//	        halt`}},
//	        System: paratime.DefaultScenarioSystem(),
//	        Mode:   paratime.ScenarioMode{Kind: paratime.ModeSolo},
//	}
//	rep, err := paratime.Run(context.Background(), sc)
//	fmt.Println(rep.Tasks[0].WCET)
package paratime

import (
	"context"
	"fmt"
	"sync"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/flow"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/pipeline"
	"paratime/internal/sim"
	"paratime/internal/spec"
	"paratime/internal/workload"
)

// Core analysis types.
type (
	// Task is one unit of WCET analysis: a program plus flow annotations.
	Task = core.Task
	// SystemConfig describes the analyzed core and memory hierarchy.
	SystemConfig = core.SystemConfig
	// MemSystem is the memory-hierarchy part of a SystemConfig.
	MemSystem = core.MemSystem
	// Analysis holds every artefact of one task's analysis.
	Analysis = core.Analysis
	// CacheConfig describes one cache level.
	CacheConfig = cache.Config
	// Program is a linked executable image for the toolkit's ISA.
	Program = isa.Program
	// Facts carries loop-bound annotations and extra path constraints.
	Facts = flow.Facts
	// Arbiter is a shared-bus arbitration policy (bound + simulation).
	Arbiter = arbiter.Arbiter
	// MemConfig parameterizes the analyzable memory controller.
	MemConfig = memctrl.Config
	// SimSystem is a multicore simulation configuration.
	SimSystem = sim.System
	// SimResult reports per-core simulation statistics.
	SimResult = sim.Result
)

// Scenario API v1: declarative, serializable analysis requests with one
// context-aware entry point. See internal/spec for the schema.
type (
	// Scenario declaratively captures one complete analysis request.
	Scenario = spec.Scenario
	// ScenarioTask describes one task of a Scenario.
	ScenarioTask = spec.TaskSpec
	// ScenarioSystem describes a Scenario's core and memory hierarchy.
	ScenarioSystem = spec.SystemSpec
	// ScenarioMode selects a Scenario's resource-sharing regime.
	ScenarioMode = spec.ModeSpec
	// ScenarioSim requests cycle-accurate validation alongside analysis.
	ScenarioSim = spec.SimSpec
	// ScenarioPartition selects an L2 partitioning scheme (mode partition).
	ScenarioPartition = spec.PartitionSpec
	// ScenarioLock selects a cache-locking policy (mode lock).
	ScenarioLock = spec.LockSpec
	// ScenarioBus describes a shared-bus arbitration regime (mode bus).
	ScenarioBus = spec.BusSpec
	// ScenarioSlot is one TDMA slot-table entry.
	ScenarioSlot = spec.SlotSpec
	// ScenarioSMT parameterizes the partitioned-queue SMT core (mode smt).
	ScenarioSMT = spec.SMTSpec
	// ScenarioPRET parameterizes the PRET interleaved core (mode pret).
	ScenarioPRET = spec.PretSpec
	// ScenarioExplore requests bounded exhaustive exploration: exact
	// worst case over all declared inputs and initial cache states.
	ScenarioExplore = spec.ExploreSpec
	// ScenarioInput declares one explored input register and its domain.
	ScenarioInput = spec.InputSpec
	// Report is the structured, JSON-encodable result of Run.
	Report = spec.Report
	// TaskReport is one task's outcome within a Report.
	TaskReport = spec.TaskReport
	// ExploreReport summarizes a Report's exhaustive exploration.
	ExploreReport = spec.ExploreReport
	// WitnessReport is a replayable exact-worst witness in a TaskReport.
	WitnessReport = spec.WitnessReport
)

// SpecVersion is the Scenario schema version this build speaks.
const SpecVersion = spec.Version

// Scenario mode kinds (resource-sharing regimes, survey §3–§5).
const (
	ModeSolo      = spec.KindSolo
	ModeJoint     = spec.KindJoint
	ModePartition = spec.KindPartition
	ModeLock      = spec.KindLock
	ModeBus       = spec.KindBus
	ModeSMT       = spec.KindSMT
	ModePRET      = spec.KindPRET
)

// Run executes one scenario on the shared default engine: validation,
// analysis dispatch, optional simulation cross-check, structured report.
// Cancelling ctx makes Run return promptly with ctx.Err().
func Run(ctx context.Context, sc *Scenario) (*Report, error) {
	return spec.Run(ctx, sc, defaultEngine())
}

// DecodeScenario parses and validates one scenario from JSON.
func DecodeScenario(data []byte) (*Scenario, error) { return spec.Decode(data) }

// DecodeScenarios parses a single scenario object or a JSON array of
// scenarios (the `paratime export` format).
func DecodeScenarios(data []byte) ([]*Scenario, error) { return spec.DecodeAll(data) }

// DefaultScenarioSystem returns the canonical default system in Scenario
// form.
func DefaultScenarioSystem() ScenarioSystem { return spec.DefaultSystemSpec() }

// ScenarioSystemOf externalizes a SystemConfig (e.g. one assembled with
// NewSystem) into Scenario form, paired with the default memory device.
func ScenarioSystemOf(sys SystemConfig) ScenarioSystem {
	return spec.SystemToSpec(sys, memctrl.DefaultConfig())
}

// ScenarioTaskOf externalizes a prebuilt task (program plus loop-bound
// annotations) into Scenario form.
func ScenarioTaskOf(t Task) (ScenarioTask, error) { return spec.TaskToSpec(t) }

// Assemble parses assembler text into a Program (see isa.Assemble for the
// syntax).
func Assemble(name, src string) (*Program, error) { return isa.Assemble(name, src) }

// MustAssemble is Assemble, panicking on error.
func MustAssemble(name, src string) *Program { return isa.MustAssemble(name, src) }

// NewFacts returns an empty annotation set.
func NewFacts() *Facts { return flow.NewFacts() }

// DefaultSystem returns the canonical small embedded configuration:
// private L1s, a unified L2, and an analyzable closed-page memory
// controller bound.
func DefaultSystem() SystemConfig { return core.DefaultSystem() }

// SystemOption customizes one aspect of a system configuration built by
// NewSystem.
type SystemOption func(*SystemConfig)

// NewSystem assembles a system configuration from the canonical default
// plus options, replacing hand-mutated SystemConfig structs:
//
//	sys := paratime.NewSystem(
//	        paratime.WithL1I(paratime.CacheConfig{Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1}),
//	        paratime.WithSharedL2(paratime.CacheConfig{Sets: 64, Ways: 1, LineBytes: 32, HitLatency: 4}),
//	)
func NewSystem(opts ...SystemOption) SystemConfig {
	sys := core.DefaultSystem()
	for _, opt := range opts {
		opt(&sys)
	}
	return sys
}

// WithPipeline overrides the pipeline timing parameterization.
func WithPipeline(pc pipeline.Config) SystemOption {
	return func(s *SystemConfig) { s.Pipeline = pc }
}

// WithL1I overrides the instruction-cache geometry; the canonical name
// "L1I" is applied.
func WithL1I(c CacheConfig) SystemOption {
	return func(s *SystemConfig) { c.Name = "L1I"; s.Mem.L1I = c }
}

// WithL1D overrides the data-cache geometry; the canonical name "L1D" is
// applied.
func WithL1D(c CacheConfig) SystemOption {
	return func(s *SystemConfig) { c.Name = "L1D"; s.Mem.L1D = c }
}

// WithSharedL2 overrides the unified second level; the canonical name
// "L2" is applied.
func WithSharedL2(c CacheConfig) SystemOption {
	return func(s *SystemConfig) { c.Name = "L2"; s.Mem.L2 = &c }
}

// WithoutL2 removes the second level: L1 misses go straight to memory.
func WithoutL2() SystemOption {
	return func(s *SystemConfig) { s.Mem.L2 = nil }
}

// WithArbitrationDelay sets a fixed worst-case bus-arbitration delay per
// transaction (an arbiter bound such as N·L−1).
func WithArbitrationDelay(d int) SystemOption {
	return func(s *SystemConfig) { s.Mem.BusDelay = d }
}

// WithMemController derives the worst-case memory latency from an
// analyzable memory-controller configuration.
func WithMemController(mem MemConfig) SystemOption {
	return func(s *SystemConfig) { s.Mem.MemLatency = mem.Bound() }
}

// WithMemLatency sets the worst-case main-memory access bound directly.
func WithMemLatency(n int) SystemOption {
	return func(s *SystemConfig) { s.Mem.MemLatency = n }
}

// Analyze runs the complete static WCET analysis of one task.
func Analyze(task Task, sys SystemConfig) (*Analysis, error) { return core.Analyze(task, sys) }

// Prepare runs the analysis up to cache classification, for callers that
// apply interference or locking adjustments before pricing.
func Prepare(task Task, sys SystemConfig) (*Analysis, error) { return core.Prepare(task, sys) }

// Batch analysis.

// Engine is a concurrent batch analyzer: it fans independent analysis
// requests across a bounded worker pool and memoizes the expensive
// prepare prefix (CFG, flow bounds, cache classification) by content, so
// sweeps over bus arbiters or repeated experiment configurations reuse
// prepared artefacts. Results are bit-identical to the sequential path.
// The analyses AnalyzeAll and Analyze return are read-only: they share
// their cache classification state, and the pricing plan compiled from
// it, with the memo and with each other.
// To adjust one (interference, bypass, locking), use PrepareAll, or
// Clone the analysis first.
type Engine = engine.Engine

// AnalysisRequest is one (Task, SystemConfig) unit of batch analysis.
type AnalysisRequest = engine.Request

// NewEngine returns a batch analyzer running at most workers concurrent
// analyses; workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// defaultEngine backs Run, so repeated facade calls share one memo
// cache.
var defaultEngine = sync.OnceValue(func() *Engine { return engine.New(0) })

// DefaultEngine returns the shared engine behind Run, for callers that
// want its memo statistics or to bound memory with Reset between
// unrelated sweeps (the memo otherwise grows with the number of
// distinct analyzed configurations).
func DefaultEngine() *Engine { return defaultEngine() }

// Arbiters.

// NewRoundRobinBus returns a round-robin bus for n cores with the given
// transaction latency; its per-core delay bound is N·L−1.
func NewRoundRobinBus(n, lat int) Arbiter { return arbiter.NewRoundRobin(n, lat) }

// NewTDMABus returns a slot-table bus (Rosén et al.).
func NewTDMABus(slots []arbiter.Slot, lat int) *arbiter.TDMA { return arbiter.NewTDMA(slots, lat) }

// NewMultiBandwidthBus returns an MBBA-style weighted bus.
func NewMultiBandwidthBus(weights []int, lat int) *arbiter.TDMA {
	return arbiter.NewMultiBandwidth(weights, lat)
}

// Simulation.

// BuildSim assembles a multicore simulation where every core runs one
// task under the same core/memory configuration.
func BuildSim(sys SystemConfig, mem MemConfig, bus Arbiter, sharedL2 bool, tasks ...Task) SimSystem {
	return sim.FromConfig(sys, mem, bus, sharedL2, tasks...)
}

// Simulate runs a simulation to completion.
func Simulate(s SimSystem, maxCycles int64) (*SimResult, error) { return sim.Run(s, maxCycles) }

// Workload.

// Suite returns the built-in benchmark tasks at disjoint address ranges.
func Suite() []Task { return workload.Suite() }

// Bench returns one named benchmark from the suite.
func Bench(name string) (Task, error) {
	for _, t := range workload.Suite() {
		if t.Name == name {
			return t, nil
		}
	}
	return Task{}, fmt.Errorf("paratime: no benchmark %q", name)
}

// DefaultMemConfig returns the standard analyzable memory device.
func DefaultMemConfig() MemConfig { return memctrl.DefaultConfig() }

// DefaultPipeline returns the standard pipeline parameterization.
func DefaultPipeline() pipeline.Config { return pipeline.DefaultConfig() }
