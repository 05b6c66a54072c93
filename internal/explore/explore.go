// Package explore is the toolkit's bounded exhaustive-exploration
// oracle (KTA-style, after Broman's KTA tool): for small programs it
// enumerates every input assignment from a declared finite domain and
// every budgeted initial cache state, drives each resulting concrete
// machine state through the cycle-accurate simulator — the same
// compiled ops and latency tables the static analysis prices — and
// returns the exact worst case observed, with a replayable witness.
//
// Where the simulator turns "sound" into "sound against one trace",
// the explorer turns it into "sound against *all* bounded traces", and
// the ratio exact_worst / static_bound becomes a measured tightness
// that regression gates can pin (TIGHTNESS.json at the repo root).
//
// Exploration is exhaustive over the declared state space, never
// silently partial: every budget (path decisions, initial states,
// total states, architectural steps) is explicit, enumeration order is
// deterministic, and any state skipped or cut off sets Truncated on
// the result.
package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"paratime/internal/isa"
	"paratime/internal/parallel"
	"paratime/internal/sim"
)

// Default budgets (applied by ExplorePar when the corresponding Budget
// field is zero).
const (
	DefaultMaxBranchDecisions = 16
	DefaultInitStates         = 1
	DefaultMaxStates          = 4096
	DefaultMaxSteps           = 1_000_000
	DefaultMaxCycles          = 500_000_000
)

// Budget bounds one exploration. The zero value selects the defaults.
type Budget struct {
	// MaxBranchDecisions caps the input-dependent (tainted) branch
	// decisions a single trace may take; a trace exceeding it is
	// skipped and the exploration reports Truncated.
	MaxBranchDecisions int
	// InitStates is the number of enumerated initial cache states:
	// pattern 0 is the cold state, patterns >= 1 deterministically
	// pre-warm the caches with rotations of the program's footprint.
	InitStates int
	// MaxStates is the hard cap on priced (assignment, pattern) states;
	// hitting it stops enumeration and sets Truncated.
	MaxStates int
	// MaxSteps caps architectural steps per trace (divergence guard).
	MaxSteps int64
	// MaxCycles bounds each priced simulation.
	MaxCycles int64
}

func (b Budget) withDefaults() Budget {
	if b.MaxBranchDecisions == 0 {
		b.MaxBranchDecisions = DefaultMaxBranchDecisions
	}
	if b.InitStates == 0 {
		b.InitStates = DefaultInitStates
	}
	if b.MaxStates == 0 {
		b.MaxStates = DefaultMaxStates
	}
	if b.MaxSteps == 0 {
		b.MaxSteps = DefaultMaxSteps
	}
	if b.MaxCycles == 0 {
		b.MaxCycles = DefaultMaxCycles
	}
	return b
}

// Input declares one input register of one core together with its
// finite value domain. The explorer enumerates the cartesian product
// of all declared inputs.
type Input struct {
	Core   int
	Reg    isa.Reg
	Values []int32
}

// RegValue is one register assignment of a witness.
type RegValue struct {
	Reg   isa.Reg
	Value int32
}

// InitState identifies one enumerated machine start state: per-core
// input register assignments plus the initial-cache pattern index.
type InitState struct {
	// Regs holds core i's input assignment at index i (sorted by
	// register, ascending).
	Regs [][]RegValue
	// Pattern is the initial cache state index (0 = cold).
	Pattern int
}

// Witness is the start state and path that realize one core's exact
// worst case; Replay reproduces Cycles exactly.
type Witness struct {
	Init InitState
	// Path records the witnessed core's input-dependent branch
	// decisions in trace order ('T' taken, 'N' not taken).
	Path   string
	Cycles int64
}

// Result is the outcome of one exploration.
type Result struct {
	// ExactWorst is core i's maximum completion time over every priced
	// state.
	ExactWorst []int64
	// Witness realizes ExactWorst per core.
	Witness []Witness
	// States counts priced (assignment, pattern) states.
	States int
	// Paths counts distinct (core, decision-sequence) pairs observed.
	Paths int
	// MaxDecisions is the largest per-trace count of input-dependent
	// branch decisions among priced traces.
	MaxDecisions int
	// Truncated reports that the enumeration was NOT exhaustive: a
	// budget cut states off or skipped traces. A truncated ExactWorst
	// is only a lower bound on the true exact worst case.
	Truncated bool
}

// trace is the architectural summary of one (core, assignment) run.
type trace struct {
	path      string
	decisions int
	truncated bool
	// reason names the Budget field that cut the trace off ("MaxSteps"
	// or "MaxBranchDecisions"); empty for complete traces.
	reason string
}

// truncatedBudgetErr is the all-truncated failure, naming the Budget
// field(s) that actually tripped so callers know which limit to raise.
func truncatedBudgetErr(sawSteps, sawDecisions bool) error {
	var limit string
	switch {
	case sawSteps && sawDecisions:
		limit = "MaxSteps or MaxBranchDecisions"
	case sawSteps:
		limit = "MaxSteps"
	default:
		limit = "MaxBranchDecisions"
	}
	return fmt.Errorf("explore: no state could be priced within the budgets (every trace exceeded %s)", limit)
}

// ExplorePar enumerates every input assignment and initial cache
// pattern within the budget, prices each state with sim.Run on up to
// workers goroutines (one runs inline), and returns the per-core exact
// worst case with witnesses. Enumeration order is deterministic:
// patterns outermost (cold first), then assignments in row-major
// declared-value order with the last input varying fastest. The result,
// including witnesses, truncation flags and every error message, is the
// same at any worker count:
//
//   - a sequential scan first fixes the exact priced-state list
//     (memoized taint traces, MaxStates gating);
//   - the simulations, which are pure functions of their start state,
//     then run on the worker pool;
//   - a sequential reduce in enumeration order accumulates the result,
//     so ties resolve to the lowest state index, and a simulation
//     failure reports its state number and outranks a trace error from
//     any later combination.
func ExplorePar(sys sim.System, inputs []Input, b Budget, workers int) (*Result, error) {
	b = b.withDefaults()
	n := len(sys.Cores)
	if n == 0 {
		return nil, fmt.Errorf("explore: no cores")
	}
	perCore, counts, combos, err := planInputs(n, inputs, b.MaxStates)
	if err != nil {
		return nil, err
	}

	// Taint traces are architectural, hence per (core, assignment) —
	// independent of co-runners and cache patterns; memoize them.
	type traceKey struct {
		core int
		idx  int64
	}
	traces := map[traceKey]*trace{}
	getTrace := func(core int, idx int64) (*trace, error) {
		k := traceKey{core, idx}
		if tr, ok := traces[k]; ok {
			return tr, nil
		}
		tr, err := runTaint(sys.Cores[core].Prog, assignFor(perCore[core], idx), b)
		if err != nil {
			return nil, fmt.Errorf("explore: core %d (%s): %w", core, sys.Cores[core].Name, err)
		}
		traces[k] = tr
		return tr, nil
	}

	// Phase 1: sequential scan fixing the priced-state list. The loop
	// guards depend only on the priced count, which equals the job count
	// here, so pricing cannot change which states are listed.
	type job struct {
		pat     int
		assigns [][]RegValue
		trs     []*trace
		cycles  []int64
		err     error
	}
	res := &Result{ExactWorst: make([]int64, n), Witness: make([]Witness, n)}
	for i := range res.ExactWorst {
		res.ExactWorst[i] = -1
	}
	var jobs []*job
	var traceErr error
	var sawSteps, sawDecisions bool
	idxs := make([]int64, n)
scan:
	for pat := 0; pat < b.InitStates && len(jobs) < b.MaxStates; pat++ {
		for combo := int64(0); combo < combos && len(jobs) < b.MaxStates; combo++ {
			decompose(combo, counts, idxs)
			assigns := make([][]RegValue, n)
			trs := make([]*trace, n)
			ok := true
			for c := 0; c < n; c++ {
				assigns[c] = assignFor(perCore[c], idxs[c])
				tr, err := getTrace(c, idxs[c])
				if err != nil {
					// Enumeration stops here, but every state already on
					// the list is still priced: a simulation failure among
					// them takes precedence over this error.
					traceErr = err
					break scan
				}
				trs[c] = tr
				if tr.truncated {
					ok = false
					sawSteps = sawSteps || tr.reason == "MaxSteps"
					sawDecisions = sawDecisions || tr.reason == "MaxBranchDecisions"
				}
			}
			if !ok {
				res.Truncated = true
				continue
			}
			jobs = append(jobs, &job{pat: pat, assigns: assigns, trs: trs})
		}
	}

	// Phase 2: price every state on the worker pool. Each job builds its
	// own core slice, and sim.Run builds every stateful device (caches,
	// memory controller, bus session) per call, so concurrent runs share
	// only read-only inputs: programs, geometries and the bus policy.
	// The closure records a simulation failure in its job and returns nil,
	// so every state is still priced and phase 3 reports failures in
	// enumeration order.
	_ = parallel.For(context.Background(), workers, len(jobs), func(k int) error {
		j := jobs[k]
		run := sys
		run.Cores = make([]sim.CoreConfig, n)
		copy(run.Cores, sys.Cores)
		for c := range run.Cores {
			run.Cores[c].InitRegs = initRegs(j.assigns[c])
			run.Cores[c].WarmI, run.Cores[c].WarmD = warmAddrs(run.Cores[c], j.pat)
		}
		simRes, err := sim.Run(run, b.MaxCycles)
		if err != nil {
			j.err = err
			return nil
		}
		j.cycles = make([]int64, n)
		for c := 0; c < n; c++ {
			j.cycles[c] = simRes.Cycles(c)
		}
		return nil
	})

	// Phase 3: sequential reduce in enumeration order.
	paths := map[string]bool{}
	priced := 0
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("explore: state %d (pattern %d): %w", priced, j.pat, j.err)
		}
		priced++
		for c := 0; c < n; c++ {
			paths[fmt.Sprintf("%d|%s", c, j.trs[c].path)] = true
			if j.trs[c].decisions > res.MaxDecisions {
				res.MaxDecisions = j.trs[c].decisions
			}
			if cyc := j.cycles[c]; cyc > res.ExactWorst[c] {
				res.ExactWorst[c] = cyc
				res.Witness[c] = Witness{
					Init:   InitState{Regs: j.assigns, Pattern: j.pat},
					Path:   j.trs[c].path,
					Cycles: cyc,
				}
			}
		}
	}
	if traceErr != nil {
		return nil, traceErr
	}
	if priced == 0 {
		return nil, truncatedBudgetErr(sawSteps, sawDecisions)
	}
	res.States = priced
	res.Paths = len(paths)
	if total := saturatingMul(combos, int64(b.InitStates)); int64(priced) < total {
		res.Truncated = true
	}
	return res, nil
}

// Replay reruns one witnessed start state and returns the simulation
// result; the witnessed core's cycles equal Witness.Cycles exactly.
//
//paralint:testonly reference oracle: explore and spec tests replay witnesses against it
func Replay(sys sim.System, init InitState, maxCycles int64) (*sim.Result, error) {
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	run := sys
	run.Cores = make([]sim.CoreConfig, len(sys.Cores))
	copy(run.Cores, sys.Cores)
	for c := range run.Cores {
		if c < len(init.Regs) {
			run.Cores[c].InitRegs = initRegs(init.Regs[c])
		}
		run.Cores[c].WarmI, run.Cores[c].WarmD = warmAddrs(run.Cores[c], init.Pattern)
	}
	return sim.Run(run, maxCycles)
}

// planInputs validates and groups the declared inputs: per-core sorted
// input lists, per-core assignment counts, and the (saturating) global
// combination count.
func planInputs(n int, inputs []Input, maxStates int) (perCore [][]Input, counts []int64, combos int64, err error) {
	perCore = make([][]Input, n)
	seen := map[[2]int]bool{}
	for _, in := range inputs {
		if in.Core < 0 || in.Core >= n {
			return nil, nil, 0, fmt.Errorf("explore: input core %d outside [0,%d)", in.Core, n)
		}
		if in.Reg == 0 || in.Reg >= isa.NumRegs {
			return nil, nil, 0, fmt.Errorf("explore: input register %v is not assignable", in.Reg)
		}
		if len(in.Values) == 0 {
			return nil, nil, 0, fmt.Errorf("explore: input %v of core %d has no values", in.Reg, in.Core)
		}
		key := [2]int{in.Core, int(in.Reg)}
		if seen[key] {
			return nil, nil, 0, fmt.Errorf("explore: duplicate input %v on core %d", in.Reg, in.Core)
		}
		seen[key] = true
		perCore[in.Core] = append(perCore[in.Core], in)
	}
	counts = make([]int64, n)
	combos = 1
	for c := range perCore {
		sort.Slice(perCore[c], func(i, j int) bool { return perCore[c][i].Reg < perCore[c][j].Reg })
		counts[c] = 1
		for _, in := range perCore[c] {
			counts[c] = saturatingMul(counts[c], int64(len(in.Values)))
		}
		combos = saturatingMul(combos, counts[c])
	}
	_ = maxStates // the cap is enforced during enumeration
	return perCore, counts, combos, nil
}

// decompose maps one global combination index onto per-core assignment
// indices (last core varies fastest).
func decompose(combo int64, counts []int64, idxs []int64) {
	for c := len(counts) - 1; c >= 0; c-- {
		idxs[c] = combo % counts[c]
		combo /= counts[c]
	}
}

// assignFor materializes one core's assignment from its index (last
// input varies fastest).
func assignFor(inputs []Input, idx int64) []RegValue {
	if len(inputs) == 0 {
		return nil
	}
	out := make([]RegValue, len(inputs))
	for i := len(inputs) - 1; i >= 0; i-- {
		k := idx % int64(len(inputs[i].Values))
		idx /= int64(len(inputs[i].Values))
		out[i] = RegValue{Reg: inputs[i].Reg, Value: inputs[i].Values[k]}
	}
	return out
}

// initRegs renders an assignment as a sim.CoreConfig.InitRegs vector.
func initRegs(assign []RegValue) []int32 {
	if len(assign) == 0 {
		return nil
	}
	out := make([]int32, isa.NumRegs)
	for _, rv := range assign {
		if rv.Reg > 0 && rv.Reg < isa.NumRegs {
			out[rv.Reg] = rv.Value
		}
	}
	return out
}

// warmAddrs derives initial cache pattern `pattern` for one core:
// pattern 0 is cold; pattern j >= 1 touches a deterministic rotation
// of the program's footprint lines (instruction side and data side
// independently), so successive patterns vary both which lines start
// resident and their LRU ages.
func warmAddrs(cc sim.CoreConfig, pattern int) (wi, wd []uint32) {
	if pattern == 0 {
		return nil, nil
	}
	return rotation(textLines(cc.Prog, cc.L1I.LineBytes), pattern),
		rotation(dataLines(cc.Prog, cc.L1D.LineBytes), pattern)
}

// textLines lists the line-aligned instruction addresses of the text
// segment in ascending order.
func textLines(p *isa.Program, lineBytes int) []uint32 {
	if lineBytes <= 0 {
		return nil
	}
	lb := uint32(lineBytes)
	start := p.Base &^ (lb - 1)
	end := p.Base + uint32(len(p.Insts)*isa.InstBytes)
	var out []uint32
	for a := start; a < end; a += lb {
		out = append(out, a)
	}
	return out
}

// dataLines lists the line-aligned data-image addresses in ascending
// order.
func dataLines(p *isa.Program, lineBytes int) []uint32 {
	if lineBytes <= 0 || len(p.Data) == 0 {
		return nil
	}
	lb := uint32(lineBytes)
	set := map[uint32]bool{}
	//paralint:unordered set build; each address marks one line key
	for a := range p.Data {
		set[a&^(lb-1)] = true
	}
	out := make([]uint32, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rotation selects pattern j's deterministic slice of the footprint:
// start offset (j-1)*7 mod len, count 1 + (j-1) mod len.
func rotation(lines []uint32, pattern int) []uint32 {
	if len(lines) == 0 {
		return nil
	}
	start := ((pattern - 1) * 7) % len(lines)
	count := 1 + (pattern-1)%len(lines)
	out := make([]uint32, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, lines[(start+i)%len(lines)])
	}
	return out
}

func saturatingMul(a, b int64) int64 {
	const cap = int64(1) << 40
	if a > 0 && b > cap/a {
		return cap
	}
	return a * b
}

// runTaint executes one core's program architecturally under the given
// input assignment, tracking which registers and memory words carry
// input-derived (tainted) values, and records the outcome of every
// tainted conditional branch — the trace's input-dependent path
// choices. Execution is fully concrete; taint is bookkeeping only.
func runTaint(prog *isa.Program, assign []RegValue, b Budget) (*trace, error) {
	st := isa.NewState(prog)
	var taintReg [isa.NumRegs]bool
	for _, rv := range assign {
		if rv.Reg > 0 && rv.Reg < isa.NumRegs {
			st.Reg[rv.Reg] = rv.Value
			taintReg[rv.Reg] = true
		}
	}
	taintMem := map[uint32]bool{}
	setTaint := func(r isa.Reg, v bool) {
		if r != isa.R0 {
			taintReg[r] = v
		}
	}
	var path strings.Builder
	decisions := 0
	for steps := int64(0); !st.Halted; steps++ {
		if steps >= b.MaxSteps {
			return &trace{truncated: true, reason: "MaxSteps"}, nil
		}
		idx := st.Prog.Index(st.PC)
		if idx < 0 {
			return nil, fmt.Errorf("PC 0x%x outside text", st.PC)
		}
		in := st.Prog.Insts[idx]
		// Effective addresses must be read before the step mutates state.
		var addr uint32
		if in.IsMem() {
			addr = uint32(st.Reg[in.Rs1] + in.Imm)
		}
		if err := st.Step(); err != nil {
			return nil, err
		}
		switch in.Op {
		case isa.LI:
			setTaint(in.Rd, false)
		case isa.MOV:
			setTaint(in.Rd, taintReg[in.Rs1])
		case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR,
			isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT:
			setTaint(in.Rd, taintReg[in.Rs1] || taintReg[in.Rs2])
		case isa.ADDI, isa.ANDI, isa.ORI, isa.SLLI, isa.SRLI, isa.SLTI:
			setTaint(in.Rd, taintReg[in.Rs1])
		case isa.LD:
			setTaint(in.Rd, taintReg[in.Rs1] || taintMem[addr])
		case isa.ST:
			taintMem[addr] = taintReg[in.Rs1] || taintReg[in.Rs2]
		case isa.CALL:
			setTaint(isa.RA, false)
		case isa.RET:
			if taintReg[isa.RA] {
				// An input-derived return target is an input-dependent
				// control choice the explorer cannot enumerate finitely.
				decisions++
				if decisions > b.MaxBranchDecisions {
					return &trace{truncated: true, reason: "MaxBranchDecisions"}, nil
				}
				path.WriteByte('R')
			}
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			if taintReg[in.Rs1] || taintReg[in.Rs2] {
				decisions++
				if decisions > b.MaxBranchDecisions {
					return &trace{truncated: true, reason: "MaxBranchDecisions"}, nil
				}
				if st.PC == in.Target {
					path.WriteByte('T')
				} else {
					path.WriteByte('N')
				}
			}
		}
	}
	return &trace{path: path.String(), decisions: decisions}, nil
}
