// Package spec defines Scenario API v1: a declarative, serializable
// description of one complete WCET-analysis request — a task set plus
// the resource-sharing regime it runs under — covering every family of
// approaches in Rochange's survey (§3–§5): joint shared-L2 analysis,
// partitioning and locking, bus arbitration (round robin, TDMA, MBBA),
// SMT with partitioned queues, and the PRET thread-interleaved pipeline.
//
// A Scenario round-trips losslessly through JSON (Encode/Decode), carries
// a schema version ("spec": 1), and is strictly validated at decode time:
// impossible configurations (a joint analysis without a shared L2, a TDMA
// slot shorter than the bus latency, more threads than an SMT core has)
// are rejected with actionable errors instead of failing mid-analysis.
// Run executes a validated Scenario against the toolkit's analysis and
// simulation machinery and returns a structured Report.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"paratime/internal/isa"
)

// Version is the schema version this package encodes and decodes.
const Version = 1

// Scenario is one complete, self-contained analysis request.
type Scenario struct {
	// Spec is the schema version; Encode writes Version and Decode
	// rejects anything else.
	Spec int `json:"spec"`
	// Name labels the scenario in reports and diagnostics.
	Name string `json:"name,omitempty"`
	// Tasks are the co-scheduled analysis subjects; order is core /
	// thread assignment order for modes that care (bus, smt, pret).
	Tasks []TaskSpec `json:"tasks"`
	// System is the analyzed core and memory hierarchy.
	System SystemSpec `json:"system"`
	// Mode selects the resource-sharing regime.
	Mode ModeSpec `json:"mode"`
	// Sim, when present, requests a cycle-accurate validation run
	// alongside the static analysis.
	Sim *SimSpec `json:"sim,omitempty"`
	// Explore, when present, requests bounded exhaustive exploration:
	// every declared input assignment and initial cache state is priced
	// in simulation, and the report gains exact_worst and tightness
	// (= exact_worst / static bound) per task, with a replayable
	// witness. Every mode but lock.
	Explore *ExploreSpec `json:"explore,omitempty"`
}

// TaskSpec describes one task: exactly one of Source (assembly text,
// assembled at decode time) or Program (a prebuilt image) must be set.
type TaskSpec struct {
	Name string `json:"name"`
	// Source is assembler text in the toolkit's syntax.
	Source string `json:"source,omitempty"`
	// Program is a prebuilt executable image.
	Program *ProgramSpec `json:"program,omitempty"`
	// Bounds annotates loop bounds by header label (needed wherever the
	// flow analysis cannot derive a bound).
	Bounds map[string]int `json:"bounds,omitempty"`
	// Bypass applies Hardy et al.'s single-usage L2 bypass to this task
	// before a joint analysis (mode "joint" only).
	Bypass bool `json:"bypass,omitempty"`
}

// ProgramSpec is a lossless image of an isa.Program. Opcodes are stored
// by mnemonic so the encoding survives opcode renumbering.
type ProgramSpec struct {
	Base       uint32            `json:"base"`
	Insts      []InstSpec        `json:"insts"`
	Labels     map[string]int    `json:"labels,omitempty"`
	Data       map[uint32]int32  `json:"data,omitempty"`
	DataLabels map[string]uint32 `json:"dataLabels,omitempty"`
}

// InstSpec is one instruction of a ProgramSpec.
type InstSpec struct {
	Op     string `json:"op"`
	Rd     uint8  `json:"rd,omitempty"`
	Rs1    uint8  `json:"rs1,omitempty"`
	Rs2    uint8  `json:"rs2,omitempty"`
	Imm    int32  `json:"imm,omitempty"`
	Target uint32 `json:"target,omitempty"`
}

// SystemSpec describes the analyzed core and memory hierarchy.
type SystemSpec struct {
	// Pipeline overrides the pipeline timing; nil selects the default.
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
	L1I      CacheSpec     `json:"l1i"`
	L1D      CacheSpec     `json:"l1d"`
	// L2 is the optional unified second level; required by the joint,
	// partition and lock modes.
	L2 *CacheSpec `json:"l2,omitempty"`
	// MemCtrl parameterizes the analyzable memory controller (the
	// simulation device and the source of the derived memory bound);
	// nil selects the default device.
	MemCtrl *MemCtrlSpec `json:"memCtrl,omitempty"`
	// MemLatency overrides the worst-case memory access bound; 0 derives
	// it from the memory controller (MemCtrl.Bound()).
	MemLatency int `json:"memLatency,omitempty"`
	// BusDelay is a fixed per-transaction arbitration bound applied to
	// every task. It must be 0 in mode "bus", which derives per-core
	// bounds from the arbiter instead.
	BusDelay int `json:"busDelay,omitempty"`
}

// CacheSpec mirrors one cache level's geometry and timing.
type CacheSpec struct {
	Sets        int `json:"sets"`
	Ways        int `json:"ways"`
	LineBytes   int `json:"lineBytes"`
	HitLatency  int `json:"hitLatency"`
	MissPenalty int `json:"missPenalty,omitempty"`
}

// PipelineSpec mirrors pipeline.Config: EX-stage latency per instruction
// class (by class name) and the taken-branch refetch penalty.
type PipelineSpec struct {
	ExLat         map[string]int `json:"exLat"`
	BranchPenalty int            `json:"branchPenalty"`
}

// MemCtrlSpec mirrors memctrl.Config.
type MemCtrlSpec struct {
	Banks      int  `json:"banks"`
	RowBits    int  `json:"rowBits"`
	CAS        int  `json:"cas"`
	Activate   int  `json:"activate"`
	Precharge  int  `json:"precharge"`
	ClosedPage bool `json:"closedPage"`
}

// Mode kinds.
const (
	KindSolo      = "solo"      // private caches, no contention (§2)
	KindJoint     = "joint"     // joint shared-L2 analysis (§4.1)
	KindPartition = "partition" // static L2 partitioning (§4.2)
	KindLock      = "lock"      // cache locking (§4.2)
	KindBus       = "bus"       // shared bus under an arbitration bound (§5.2–5.3)
	KindSMT       = "smt"       // partitioned-queue SMT, Barre et al. (§5.3)
	KindPRET      = "pret"      // thread-interleaved PRET pipeline (§5.3)
)

// ModeSpec is the tagged union selecting a sharing regime. Exactly the
// payload matching Kind may be set; validation rejects stray payloads so
// a typo'd scenario fails loudly instead of silently analyzing the wrong
// regime.
type ModeSpec struct {
	Kind string `json:"kind"`
	// Model selects the joint-analysis conflict semantics
	// ("directmapped" or "ageshift"); mode "joint" only.
	Model string `json:"model,omitempty"`
	// Lifetimes, when set (mode "joint"), enables Li et al.'s iterative
	// lifetime refinement; entry i describes task i.
	Lifetimes []LifetimeSpec `json:"lifetimes,omitempty"`
	Partition *PartitionSpec `json:"partition,omitempty"`
	Lock      *LockSpec      `json:"lock,omitempty"`
	Bus       *BusSpec       `json:"bus,omitempty"`
	SMT       *SMTSpec       `json:"smt,omitempty"`
	PRET      *PretSpec      `json:"pret,omitempty"`
}

// LifetimeSpec maps one task onto the schedule for lifetime refinement.
type LifetimeSpec struct {
	Core     int `json:"core"`
	Priority int `json:"priority"`
	// Deps lists task indices that must complete first.
	Deps []int `json:"deps,omitempty"`
}

// Partition schemes.
const (
	PartTask  = "task"  // per-task set partition (Suhendra & Mitra)
	PartCore  = "core"  // per-core set partition (Suhendra & Mitra)
	PartWays  = "ways"  // columnization (Paolieri et al.)
	PartBanks = "banks" // bankization (Paolieri et al.)
)

// PartitionSpec selects how the shared L2 is split into private views.
type PartitionSpec struct {
	Scheme string `json:"scheme"`
	// Cores is the core count for scheme "core".
	Cores int `json:"cores,omitempty"`
	// Assign maps task index to core for scheme "core" (informational;
	// the even split makes the mapping immaterial to the bound).
	Assign []int `json:"assign,omitempty"`
	// Ways is the private way count for scheme "ways".
	Ways int `json:"ways,omitempty"`
	// Banks of TotalBanks is the private share for scheme "banks".
	Banks      int `json:"banks,omitempty"`
	TotalBanks int `json:"totalBanks,omitempty"`
}

// Lock policies.
const (
	LockStatic  = "static"
	LockDynamic = "dynamic"
)

// LockSpec selects a cache-locking policy and capacity.
type LockSpec struct {
	Policy      string `json:"policy"`
	BudgetLines int    `json:"budgetLines"`
}

// Bus policies.
const (
	BusRoundRobin = "roundrobin"
	BusTDMA       = "tdma"
	BusMBBA       = "mbba"
)

// BusSpec describes the shared-bus arbitration regime. The per-core
// worst-case grant delay (the arbiter's Bound) becomes each task's
// BusDelay in the static analysis; Sim drives the same arbiter
// cycle-accurately.
type BusSpec struct {
	Policy string `json:"policy"`
	// Latency is the bus occupancy of one transaction; 0 derives the
	// full memory round trip (L2 hit latency + memory bound).
	Latency int `json:"latency,omitempty"`
	// Cores is the arbitration width for "roundrobin"; 0 uses the task
	// count.
	Cores int `json:"cores,omitempty"`
	// Slots is the TDMA slot table ("tdma" only).
	Slots []SlotSpec `json:"slots,omitempty"`
	// Weights are the per-core bandwidth shares ("mbba" only).
	Weights []int `json:"weights,omitempty"`
}

// SlotSpec is one TDMA table entry.
type SlotSpec struct {
	Owner int `json:"owner"`
	Len   int `json:"len"`
}

// SMTSpec parameterizes the partitioned-queue SMT core (Barre et al.).
type SMTSpec struct {
	Threads    int `json:"threads"`
	FULatency  int `json:"fuLatency"`
	MemLatency int `json:"memLatency"`
}

// PretSpec parameterizes the PRET thread-interleaved core.
type PretSpec struct {
	Threads     int `json:"threads"`
	WheelWindow int `json:"wheelWindow"`
	MemLatency  int `json:"memLatency"`
}

// ExploreSpec requests bounded exhaustive exploration. The explored
// state space is the cartesian product of all declared input-register
// value sets times the initial cache states; every state runs through
// the cycle-accurate simulator under the mode's co-run topology (the
// same topology the sim block validates against). All budgets are
// optional; zero selects the explorer's default.
type ExploreSpec struct {
	// MaxBranchDecisions caps input-dependent branch decisions per
	// trace (default 16, max 30).
	MaxBranchDecisions int `json:"maxBranchDecisions,omitempty"`
	// InitStates enumerates this many initial cache states: state 0 is
	// cold, states >= 1 deterministically pre-warm footprint lines
	// (default 1, max 64).
	InitStates int `json:"initStates,omitempty"`
	// MaxStates is the hard cap on priced states; hitting it marks the
	// exploration truncated (default 4096, max 1048576).
	MaxStates int `json:"maxStates,omitempty"`
	// MaxSteps caps architectural steps per trace (default 1000000).
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// Inputs declare the enumerated input registers; empty explores
	// initial cache states only.
	Inputs []InputSpec `json:"inputs,omitempty"`
}

// InputSpec declares one input register of one task and its finite
// value domain.
type InputSpec struct {
	// Task names the owning task (must match a tasks[] entry).
	Task string `json:"task"`
	// Reg is the register name ("r1".."r13", "sp", "ra"); r0 is
	// hardwired and not assignable.
	Reg string `json:"reg"`
	// Values is the enumerated domain (1..16 values).
	Values []int32 `json:"values"`
}

// Explore bounds enforced by Validate.
const (
	maxExploreBranchDecisions = 30
	maxExploreInitStates      = 64
	maxExploreStates          = 1 << 20
	maxExploreSteps           = 100_000_000
	maxExploreValues          = 16
)

// RegByName parses an architectural register name as InputSpec.Reg
// uses it ("r0".."r13", "sp", "ra").
func RegByName(name string) (isa.Reg, bool) {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r.String() == name {
			return r, true
		}
	}
	return 0, false
}

// validateExplore checks the explore block: a mode the explorer can
// drive, budgets within bounds, and inputs naming real tasks and
// assignable registers.
func (s *Scenario) validateExplore() error {
	e := s.Explore
	if e == nil {
		return nil
	}
	if m := modeOf(s.Mode.Kind); m == nil || m.machines == nil {
		var supported []string
		for _, r := range modes {
			if r.machines != nil {
				supported = append(supported, strconv.Quote(r.kind))
			}
		}
		return fmt.Errorf("spec: explore is not supported in mode %q (supported: %s)",
			s.Mode.Kind, strings.Join(supported, ", "))
	}
	if e.MaxBranchDecisions < 0 || e.MaxBranchDecisions > maxExploreBranchDecisions {
		return fmt.Errorf("spec: explore maxBranchDecisions %d outside [0,%d]", e.MaxBranchDecisions, maxExploreBranchDecisions)
	}
	if e.InitStates < 0 || e.InitStates > maxExploreInitStates {
		return fmt.Errorf("spec: explore initStates %d outside [0,%d]", e.InitStates, maxExploreInitStates)
	}
	if e.MaxStates < 0 || e.MaxStates > maxExploreStates {
		return fmt.Errorf("spec: explore maxStates %d outside [0,%d]", e.MaxStates, maxExploreStates)
	}
	if e.MaxSteps < 0 || e.MaxSteps > maxExploreSteps {
		return fmt.Errorf("spec: explore maxSteps %d outside [0,%d]", e.MaxSteps, maxExploreSteps)
	}
	taskNames := map[string]bool{}
	for _, t := range s.Tasks {
		taskNames[t.Name] = true
	}
	seen := map[string]bool{}
	for i, in := range e.Inputs {
		if !taskNames[in.Task] {
			return fmt.Errorf("spec: explore inputs[%d] names unknown task %q", i, in.Task)
		}
		r, ok := RegByName(in.Reg)
		if !ok {
			return fmt.Errorf("spec: explore inputs[%d] names unknown register %q (use \"r1\"..\"r13\", \"sp\" or \"ra\")", i, in.Reg)
		}
		if r == 0 {
			return fmt.Errorf("spec: explore inputs[%d] targets r0, which is hardwired to zero", i)
		}
		if len(in.Values) == 0 || len(in.Values) > maxExploreValues {
			return fmt.Errorf("spec: explore inputs[%d] needs 1..%d values, has %d", i, maxExploreValues, len(in.Values))
		}
		key := in.Task + "\x00" + in.Reg
		if seen[key] {
			return fmt.Errorf("spec: explore inputs[%d] duplicates %s.%s", i, in.Task, in.Reg)
		}
		seen[key] = true
	}
	return nil
}

// SimSpec requests cycle-accurate validation. Topology follows the mode:
// solo simulates each task alone; bus co-runs all tasks on the shared
// bus with private L2s; joint co-runs them on a shared L2 over private,
// uncontended memory paths (a fixed system BusDelay is a bound in the
// analysis, not a simulated device); partition co-runs the tasks with
// each core restricted to a private view of its L2 partition (the
// isolation the analysis assumes); smt and pret co-run the threads on
// fixed-cost cores sharing the function unit or memory wheel. MaxCycles
// bounds each simulation in cycles, in every mode (0 selects a
// default). Lock mode does not simulate (no lockable cache).
type SimSpec struct {
	MaxCycles int64 `json:"maxCycles,omitempty"`
}

// Encode validates the scenario and renders it as indented JSON. The
// encoding is canonical: Decode(Encode(s)) reproduces s exactly.
//
//paralint:canonical the scenario wire format; round-trip pinned by the spec tests
func (s *Scenario) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Decode parses one scenario from JSON, rejecting unknown fields,
// trailing data, schema versions other than Version, and invalid
// configurations.
func Decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	if err := rejectTrailing(dec); err != nil {
		return nil, fmt.Errorf("%w (multiple scenarios must be wrapped in a JSON array)", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// rejectTrailing errors unless the decoder has consumed its whole
// input: anything after the first JSON value — well-formed or not — is
// trailing data.
func rejectTrailing(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("spec: trailing data after JSON value")
	}
	return nil
}

// DecodeAll parses either a single scenario object or a JSON array of
// scenarios (the format `paratime export` writes).
func DecodeAll(data []byte) ([]*Scenario, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty input")
	}
	if trimmed[0] != '[' {
		s, err := Decode(data)
		if err != nil {
			return nil, err
		}
		return []*Scenario{s}, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var list []*Scenario
	if err := dec.Decode(&list); err != nil {
		return nil, fmt.Errorf("spec: decode scenario array: %w", err)
	}
	if err := rejectTrailing(dec); err != nil {
		return nil, err
	}
	for i, s := range list {
		if s == nil {
			return nil, fmt.Errorf("spec: scenario %d is null", i)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", i, s.Name, err)
		}
	}
	return list, nil
}

// EncodeAll renders scenarios as one JSON array (the `paratime export`
// format), validating each.
//
//paralint:canonical the export wire format: a JSON array of canonical scenario encodings
func EncodeAll(list []*Scenario) ([]byte, error) {
	for i, s := range list {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", i, s.Name, err)
		}
	}
	out, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Validate checks the scenario for structural and semantic validity,
// returning an actionable error for the first problem found. It is
// called by Encode, Decode and Run; a Scenario assembled in Go code can
// call it directly.
func (s *Scenario) Validate() error {
	if s.Spec != Version {
		return fmt.Errorf("spec: unsupported schema version %d (this build supports \"spec\": %d)", s.Spec, Version)
	}
	if len(s.Tasks) == 0 {
		return fmt.Errorf("spec: scenario %q has no tasks", s.Name)
	}
	seen := map[string]bool{}
	for i, t := range s.Tasks {
		if t.Name == "" {
			return fmt.Errorf("spec: task %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("spec: duplicate task name %q", t.Name)
		}
		seen[t.Name] = true
		if (t.Source == "") == (t.Program == nil) {
			return fmt.Errorf("spec: task %q must set exactly one of source or program", t.Name)
		}
		if t.Bypass && s.Mode.Kind != KindJoint {
			return fmt.Errorf("spec: task %q sets bypass, which only applies in mode %q (mode is %q)",
				t.Name, KindJoint, s.Mode.Kind)
		}
		// Sorted labels keep the first-error choice deterministic.
		for _, label := range sortedKeys(t.Bounds) {
			if n := t.Bounds[label]; n <= 0 {
				return fmt.Errorf("spec: task %q: loop bound %q = %d must be positive", t.Name, label, n)
			}
		}
		if t.Program != nil {
			if len(t.Program.Insts) == 0 {
				return fmt.Errorf("spec: task %q: program has no instructions", t.Name)
			}
			for j, in := range t.Program.Insts {
				if _, ok := opByName(in.Op); !ok {
					return fmt.Errorf("spec: task %q: instruction %d has unknown opcode %q", t.Name, j, in.Op)
				}
			}
		}
	}
	if err := s.System.validate(); err != nil {
		return err
	}
	if err := s.validateMode(); err != nil {
		return err
	}
	if err := s.validateSim(); err != nil {
		return err
	}
	return s.validateExplore()
}

func (c CacheSpec) validate(name string) error {
	if c.Sets <= 0 || c.Ways <= 0 || c.LineBytes <= 0 || c.HitLatency <= 0 {
		return fmt.Errorf("spec: %s geometry %+v needs positive sets, ways, lineBytes and hitLatency", name, c)
	}
	if c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("spec: %s has %d sets; set counts must be powers of two", name, c.Sets)
	}
	return nil
}

func (sys SystemSpec) validate() error {
	if err := sys.L1I.validate("l1i"); err != nil {
		return err
	}
	if err := sys.L1D.validate("l1d"); err != nil {
		return err
	}
	if sys.L2 != nil {
		if err := sys.L2.validate("l2"); err != nil {
			return err
		}
	}
	if sys.MemLatency < 0 || sys.BusDelay < 0 {
		return fmt.Errorf("spec: negative memLatency or busDelay")
	}
	if sys.MemCtrl != nil {
		if err := sys.MemCtrl.toConfig().Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	if sys.Pipeline != nil {
		if sys.Pipeline.BranchPenalty < 0 {
			return fmt.Errorf("spec: negative branchPenalty")
		}
		// Sorted names keep the first-error choice deterministic.
		for _, cls := range sortedKeys(sys.Pipeline.ExLat) {
			lat := sys.Pipeline.ExLat[cls]
			if _, ok := classByName(cls); !ok {
				return fmt.Errorf("spec: pipeline exLat names unknown instruction class %q (known: %s)",
					cls, knownClassNames())
			}
			if lat < 1 {
				return fmt.Errorf("spec: pipeline exLat[%q] = %d must be >= 1", cls, lat)
			}
		}
	}
	return nil
}

// validateMode checks the mode payload: the right payload present and
// well-formed, all foreign payloads absent.
func (s *Scenario) validateMode() error {
	m := s.Mode
	type payload struct {
		name string
		set  bool
	}
	payloads := []payload{
		{"model", m.Model != ""},
		{"lifetimes", len(m.Lifetimes) > 0},
		{"partition", m.Partition != nil},
		{"lock", m.Lock != nil},
		{"bus", m.Bus != nil},
		{"smt", m.SMT != nil},
		{"pret", m.PRET != nil},
	}
	row := modeOf(m.Kind)
	if row == nil {
		kinds := make([]string, len(modes))
		for i, r := range modes {
			kinds[i] = r.kind
		}
		sort.Strings(kinds)
		return fmt.Errorf("spec: unknown mode kind %q (known: %v)", m.Kind, kinds)
	}
	for _, p := range payloads {
		if p.set && !slices.Contains(row.payloads, p.name) {
			return fmt.Errorf("spec: mode %q does not take a %q payload", m.Kind, p.name)
		}
	}

	if row.needsL2 && s.System.L2 == nil {
		return fmt.Errorf("spec: mode %q needs a shared L2; add system.l2", m.Kind)
	}
	if m.Kind == KindBus && s.System.BusDelay != 0 {
		return fmt.Errorf("spec: mode %q derives per-core bus bounds from the arbiter; remove system.busDelay", m.Kind)
	}

	switch m.Kind {
	case KindJoint:
		if m.Model != "" && m.Model != ModelDirectMapped && m.Model != ModelAgeShift {
			return fmt.Errorf("spec: unknown conflict model %q (known: %q, %q)", m.Model, ModelDirectMapped, ModelAgeShift)
		}
		if n := len(m.Lifetimes); n > 0 && n != len(s.Tasks) {
			return fmt.Errorf("spec: %d lifetime entries for %d tasks; provide one per task", n, len(s.Tasks))
		}
		for i, l := range m.Lifetimes {
			for _, d := range l.Deps {
				if d < 0 || d >= len(s.Tasks) {
					return fmt.Errorf("spec: lifetimes[%d] depends on task %d, outside [0,%d)", i, d, len(s.Tasks))
				}
				if d == i {
					return fmt.Errorf("spec: lifetimes[%d] depends on itself", i)
				}
			}
		}
	case KindPartition:
		p := m.Partition
		if p == nil {
			return fmt.Errorf("spec: mode %q needs a partition payload", m.Kind)
		}
		switch p.Scheme {
		case PartTask:
		case PartCore:
			if p.Cores <= 0 {
				return fmt.Errorf("spec: partition scheme %q needs cores > 0", PartCore)
			}
			if len(p.Assign) > 0 && len(p.Assign) != len(s.Tasks) {
				return fmt.Errorf("spec: partition assign has %d entries for %d tasks", len(p.Assign), len(s.Tasks))
			}
			for i, c := range p.Assign {
				if c < 0 || c >= p.Cores {
					return fmt.Errorf("spec: partition assign[%d] = %d, outside [0,%d)", i, c, p.Cores)
				}
			}
		case PartWays:
			if p.Ways < 1 || p.Ways > s.System.L2.Ways {
				return fmt.Errorf("spec: partition ways %d outside [1,%d] (the L2's associativity)", p.Ways, s.System.L2.Ways)
			}
		case PartBanks:
			if p.TotalBanks <= 0 || p.Banks < 1 || p.Banks > p.TotalBanks {
				return fmt.Errorf("spec: partition banks %d of %d is not a valid share", p.Banks, p.TotalBanks)
			}
		default:
			return fmt.Errorf("spec: unknown partition scheme %q (known: %q, %q, %q, %q)",
				p.Scheme, PartTask, PartCore, PartWays, PartBanks)
		}
	case KindLock:
		l := m.Lock
		if l == nil {
			return fmt.Errorf("spec: mode %q needs a lock payload", m.Kind)
		}
		if l.Policy != LockStatic && l.Policy != LockDynamic {
			return fmt.Errorf("spec: unknown lock policy %q (known: %q, %q)", l.Policy, LockStatic, LockDynamic)
		}
		if l.BudgetLines <= 0 {
			return fmt.Errorf("spec: lock budgetLines %d must be positive", l.BudgetLines)
		}
	case KindBus:
		b := m.Bus
		if b == nil {
			return fmt.Errorf("spec: mode %q needs a bus payload", m.Kind)
		}
		if b.Latency < 0 {
			return fmt.Errorf("spec: negative bus latency")
		}
		switch b.Policy {
		case BusRoundRobin:
			if len(b.Slots) > 0 || len(b.Weights) > 0 {
				return fmt.Errorf("spec: bus policy %q takes neither slots nor weights", b.Policy)
			}
			if b.Cores != 0 && b.Cores < len(s.Tasks) {
				return fmt.Errorf("spec: bus cores %d below task count %d", b.Cores, len(s.Tasks))
			}
		case BusTDMA:
			if len(b.Slots) == 0 {
				return fmt.Errorf("spec: bus policy %q needs a slot table", b.Policy)
			}
			lat := s.effectiveBusLatency()
			owners := map[int]bool{}
			for i, sl := range b.Slots {
				if sl.Len < lat {
					return fmt.Errorf("spec: tdma slot %d (len %d) cannot fit one %d-cycle transaction; lengthen the slot or lower bus.latency",
						i, sl.Len, lat)
				}
				owners[sl.Owner] = true
			}
			for core := range s.Tasks {
				if !owners[core] {
					return fmt.Errorf("spec: tdma table has no slot for core %d (task %q); every task's core needs a slot",
						core, s.Tasks[core].Name)
				}
			}
		case BusMBBA:
			if len(b.Weights) < len(s.Tasks) {
				return fmt.Errorf("spec: bus policy %q needs one weight per task (%d weights for %d tasks)",
					b.Policy, len(b.Weights), len(s.Tasks))
			}
			for i, w := range b.Weights {
				if w <= 0 {
					return fmt.Errorf("spec: bus weight[%d] = %d must be positive", i, w)
				}
			}
		default:
			return fmt.Errorf("spec: unknown bus policy %q (known: %q, %q, %q)",
				b.Policy, BusRoundRobin, BusTDMA, BusMBBA)
		}
	case KindSMT:
		c := m.SMT
		if c == nil {
			return fmt.Errorf("spec: mode %q needs an smt payload", m.Kind)
		}
		if c.Threads <= 0 || c.FULatency <= 0 || c.MemLatency <= 0 {
			return fmt.Errorf("spec: smt config %+v needs positive threads, fuLatency and memLatency", *c)
		}
		if len(s.Tasks) > c.Threads {
			return fmt.Errorf("spec: %d tasks on an smt core with %d hardware threads", len(s.Tasks), c.Threads)
		}
	case KindPRET:
		c := m.PRET
		if c == nil {
			return fmt.Errorf("spec: mode %q needs a pret payload", m.Kind)
		}
		if c.Threads <= 0 || c.MemLatency <= 0 || c.WheelWindow < c.MemLatency {
			return fmt.Errorf("spec: pret config %+v needs positive threads and memLatency, and wheelWindow >= memLatency", *c)
		}
		if len(s.Tasks) > c.Threads {
			return fmt.Errorf("spec: %d tasks on a pret core with %d hardware threads", len(s.Tasks), c.Threads)
		}
	}
	return nil
}

// validateSim rejects simulation requests the runner does not implement
// for the selected mode, so a scenario either runs fully or fails at
// decode time.
func (s *Scenario) validateSim() error {
	if s.Sim == nil {
		return nil
	}
	if s.Sim.MaxCycles < 0 {
		return fmt.Errorf("spec: negative sim maxCycles")
	}
	if m := modeOf(s.Mode.Kind); m == nil || m.machines == nil {
		return fmt.Errorf("spec: sim validation is not supported in mode %q; remove the sim block", s.Mode.Kind)
	}
	return nil
}

// Conflict model names.
const (
	ModelDirectMapped = "directmapped"
	ModelAgeShift     = "ageshift"
)

// effectiveBusLatency mirrors the runner's derivation of the bus
// occupancy per transaction: the explicit bus.latency, or the full
// memory round trip (L2 hit latency + worst-case memory access).
func (s *Scenario) effectiveBusLatency() int {
	b := s.Mode.Bus
	if b != nil && b.Latency > 0 {
		return b.Latency
	}
	lat := s.System.MemConfig().Bound()
	if s.System.L2 != nil {
		lat += s.System.L2.HitLatency
	}
	return lat
}

// String renders a one-line human-readable summary (the text side of the
// encoding; JSON is the lossless side). It is total: an unvalidated
// scenario with a missing mode payload prints just the kind instead of
// panicking, since String is exactly what diagnostics call on invalid
// values.
func (s *Scenario) String() string {
	mode := s.Mode.Kind
	switch s.Mode.Kind {
	case KindJoint:
		model := s.Mode.Model
		if model == "" {
			model = ModelAgeShift
		}
		mode += "/" + model
		if len(s.Mode.Lifetimes) > 0 {
			mode += "+lifetimes"
		}
	case KindPartition:
		if s.Mode.Partition != nil {
			mode += "/" + s.Mode.Partition.Scheme
		}
	case KindLock:
		if s.Mode.Lock != nil {
			mode += "/" + s.Mode.Lock.Policy
		}
	case KindBus:
		if s.Mode.Bus != nil {
			mode += "/" + s.Mode.Bus.Policy
		}
	}
	sim := ""
	if s.Sim != nil {
		sim = " +sim"
	}
	if s.Explore != nil {
		sim += " +explore"
	}
	return fmt.Sprintf("scenario %q: %d task(s), mode %s%s", s.Name, len(s.Tasks), mode, sim)
}

// sortedKeys returns a map's string keys in sorted order, so validation
// loops pick the same first error on every run regardless of Go's map
// iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
