package isa

import "fmt"

// TraceKind discriminates trace events emitted by the executor.
type TraceKind uint8

// Trace event kinds.
const (
	TraceFetch TraceKind = iota // instruction fetch; Addr is the instruction address
	TraceLoad                   // data load; Addr is the effective address
	TraceStore                  // data store; Addr is the effective address
)

// TraceEvent is one architectural event, delivered in program order.
type TraceEvent struct {
	Kind TraceKind
	Addr uint32
	Inst Inst // the instruction responsible
}

// State is the architectural state of one hart executing a Program.
// It is timing-free: Step retires exactly one instruction. The cycle-level
// behaviour lives in internal/sim; this executor defines the reference
// semantics the simulator must agree with, and produces address traces for
// cache-analysis validation.
type State struct {
	Prog   *Program
	PC     uint32
	Reg    [NumRegs]int32
	Mem    map[uint32]int32
	Halted bool

	// Retired counts retired instructions.
	Retired uint64

	// Trace, when non-nil, receives fetch/load/store events in order.
	Trace func(TraceEvent)
}

// NewState returns a reset State at the program's entry with the data
// image loaded.
func NewState(p *Program) *State {
	mem := make(map[uint32]int32, len(p.Data))
	//paralint:unordered plain copy into a fresh map; State.Mem must be non-nil even when Data is
	for a, v := range p.Data {
		mem[a] = v
	}
	return &State{Prog: p, PC: p.Base, Mem: mem}
}

// load reads a data word; missing addresses read as zero.
func (s *State) load(a uint32) (int32, error) {
	if a%4 != 0 {
		return 0, fmt.Errorf("misaligned load at 0x%x", a)
	}
	return s.Mem[a], nil
}

func (s *State) store(a uint32, v int32) error {
	if a%4 != 0 {
		return fmt.Errorf("misaligned store at 0x%x", a)
	}
	s.Mem[a] = v
	return nil
}

func (s *State) setReg(r Reg, v int32) {
	if r != R0 {
		s.Reg[r] = v
	}
}

// Step retires one instruction. It returns an error for architectural
// faults (bad PC, misaligned access). Stepping a halted state is a no-op.
func (s *State) Step() error {
	if s.Halted {
		return nil
	}
	idx := s.Prog.Index(s.PC)
	if idx < 0 {
		return fmt.Errorf("PC 0x%x outside text segment of %q", s.PC, s.Prog.Name)
	}
	in := s.Prog.Insts[idx]
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceFetch, Addr: s.PC, Inst: in})
	}
	next := s.PC + InstBytes
	r := func(reg Reg) int32 { return s.Reg[reg] }

	switch in.Op {
	case NOP:
	case HALT:
		s.Halted = true
	case LI:
		s.setReg(in.Rd, in.Imm)
	case MOV:
		s.setReg(in.Rd, r(in.Rs1))
	case ADD:
		s.setReg(in.Rd, r(in.Rs1)+r(in.Rs2))
	case SUB:
		s.setReg(in.Rd, r(in.Rs1)-r(in.Rs2))
	case MUL:
		s.setReg(in.Rd, r(in.Rs1)*r(in.Rs2))
	case DIV:
		switch {
		case r(in.Rs2) == 0:
			s.setReg(in.Rd, 0)
		case r(in.Rs1) == -1<<31 && r(in.Rs2) == -1: // wraps; Go would panic
			s.setReg(in.Rd, -1<<31)
		default:
			s.setReg(in.Rd, r(in.Rs1)/r(in.Rs2))
		}
	case REM:
		switch {
		case r(in.Rs2) == 0:
			s.setReg(in.Rd, 0)
		case r(in.Rs1) == -1<<31 && r(in.Rs2) == -1:
			s.setReg(in.Rd, 0)
		default:
			s.setReg(in.Rd, r(in.Rs1)%r(in.Rs2))
		}
	case AND:
		s.setReg(in.Rd, r(in.Rs1)&r(in.Rs2))
	case OR:
		s.setReg(in.Rd, r(in.Rs1)|r(in.Rs2))
	case XOR:
		s.setReg(in.Rd, r(in.Rs1)^r(in.Rs2))
	case SLL:
		s.setReg(in.Rd, r(in.Rs1)<<(uint32(r(in.Rs2))&31))
	case SRL:
		s.setReg(in.Rd, int32(uint32(r(in.Rs1))>>(uint32(r(in.Rs2))&31)))
	case SRA:
		s.setReg(in.Rd, r(in.Rs1)>>(uint32(r(in.Rs2))&31))
	case SLT:
		s.setReg(in.Rd, boolToInt(r(in.Rs1) < r(in.Rs2)))
	case ADDI:
		s.setReg(in.Rd, r(in.Rs1)+in.Imm)
	case ANDI:
		s.setReg(in.Rd, r(in.Rs1)&in.Imm)
	case ORI:
		s.setReg(in.Rd, r(in.Rs1)|in.Imm)
	case SLLI:
		s.setReg(in.Rd, r(in.Rs1)<<(uint32(in.Imm)&31))
	case SRLI:
		s.setReg(in.Rd, int32(uint32(r(in.Rs1))>>(uint32(in.Imm)&31)))
	case SLTI:
		s.setReg(in.Rd, boolToInt(r(in.Rs1) < in.Imm))
	case LD:
		a := uint32(r(in.Rs1) + in.Imm)
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceLoad, Addr: a, Inst: in})
		}
		v, err := s.load(a)
		if err != nil {
			return fmt.Errorf("at 0x%x %v: %w", s.PC, in, err)
		}
		s.setReg(in.Rd, v)
	case ST:
		a := uint32(r(in.Rs1) + in.Imm)
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceStore, Addr: a, Inst: in})
		}
		if err := s.store(a, r(in.Rs2)); err != nil {
			return fmt.Errorf("at 0x%x %v: %w", s.PC, in, err)
		}
	case BEQ:
		if r(in.Rs1) == r(in.Rs2) {
			next = in.Target
		}
	case BNE:
		if r(in.Rs1) != r(in.Rs2) {
			next = in.Target
		}
	case BLT:
		if r(in.Rs1) < r(in.Rs2) {
			next = in.Target
		}
	case BGE:
		if r(in.Rs1) >= r(in.Rs2) {
			next = in.Target
		}
	case J:
		next = in.Target
	case CALL:
		s.setReg(RA, int32(s.PC+InstBytes))
		next = in.Target
	case RET:
		next = uint32(r(RA))
	default:
		return fmt.Errorf("at 0x%x: invalid opcode %d", s.PC, in.Op)
	}
	s.PC = next
	s.Retired++
	return nil
}

// Run steps until HALT or until maxSteps instructions have retired.
// It returns the number of retired instructions and an error if the
// program faulted or the fuel ran out (likely divergence).
//
//paralint:testonly reference interpreter: flow and cache tests check analyses against concrete runs
func (s *State) Run(maxSteps uint64) (uint64, error) {
	start := s.Retired
	for !s.Halted {
		if s.Retired-start >= maxSteps {
			return s.Retired - start, fmt.Errorf("program %q did not halt within %d steps", s.Prog.Name, maxSteps)
		}
		if err := s.Step(); err != nil {
			return s.Retired - start, err
		}
	}
	return s.Retired - start, nil
}

func boolToInt(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
