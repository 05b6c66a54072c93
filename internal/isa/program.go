package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"slices"
	"strings"
)

// DefaultBase is the default base address of a program's text segment.
const DefaultBase = 0x1000

// Program is a fully linked executable image: a contiguous text segment
// of fixed-width instructions plus an initial data image. Labels are kept
// for diagnostics and for the CFG builder's procedure discovery.
type Program struct {
	Name  string
	Base  uint32 // byte address of Insts[0]
	Insts []Inst

	// Labels maps a code label to the index of the instruction it
	// precedes. Data labels live in DataLabels.
	Labels map[string]int

	// Data is the initial data-memory image (word-addressed by byte
	// address; addresses are 4-byte aligned).
	Data map[uint32]int32

	// DataLabels maps a data label to its byte address.
	DataLabels map[string]uint32
}

// Addr returns the byte address of instruction index i.
func (p *Program) Addr(i int) uint32 { return p.Base + uint32(i)*InstBytes }

// Rebase moves the text segment to a new base address, fixing every
// control-transfer target. Co-scheduled tasks are placed at disjoint
// bases so shared-cache analyses see disjoint line sets.
func (p *Program) Rebase(newBase uint32) {
	old := p.Base
	p.Base = newBase
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() || in.Op == J || in.Op == CALL {
			in.Target = in.Target - old + newBase
		}
	}
}

// Index returns the instruction index of byte address a, or -1 if the
// address is outside the text segment or misaligned.
func (p *Program) Index(a uint32) int {
	if a < p.Base || (a-p.Base)%InstBytes != 0 {
		return -1
	}
	i := int((a - p.Base) / InstBytes)
	if i >= len(p.Insts) {
		return -1
	}
	return i
}

// End returns the first byte address past the text segment.
func (p *Program) End() uint32 { return p.Base + uint32(len(p.Insts))*InstBytes }

// Fingerprint returns a collision-resistant digest of the program's
// analysis-relevant content: text base, instruction stream, code labels
// (flow annotations bind loop bounds by label, so label placement
// changes the analysis) and data image. Programs with equal
// fingerprints yield identical analysis artefacts, which lets the
// batch engine memoize prepared analyses by content instead of pointer
// identity.
//
// The hashed encoding is binary and injective: fixed-width
// little-endian fields (base, instruction count, each instruction's
// op/rd/rs1/rs2/imm/target), then the label count and each label in
// name order as a length-prefixed name and its instruction index, then
// the data-word count and each word as an address/value pair in
// address order. Length prefixes keep any label spelling from aliasing
// another label set.
func (p *Program) Fingerprint() string {
	w := fpWriter{h: sha256.New()}
	w.u32(p.Base)
	w.u64(uint64(len(p.Insts)))
	for _, in := range p.Insts {
		w.u32(uint32(in.Op) | uint32(in.Rd)<<8 | uint32(in.Rs1)<<16 | uint32(in.Rs2)<<24)
		w.u32(uint32(in.Imm))
		w.u32(in.Target)
	}
	labels := make([]string, 0, len(p.Labels))
	for l := range p.Labels {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	w.u64(uint64(len(labels)))
	for _, l := range labels {
		w.str(l)
		w.u64(uint64(p.Labels[l]))
	}
	addrs := make([]uint32, 0, len(p.Data))
	for a := range p.Data {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	w.u64(uint64(len(addrs)))
	for _, a := range addrs {
		w.u32(a)
		w.u32(uint32(p.Data[a]))
	}
	w.flush()
	var sum [sha256.Size]byte
	return hex.EncodeToString(w.h.Sum(sum[:0]))
}

// fpWriter batches fixed-width fields into a small scratch array before
// handing them to the hash, so fingerprinting costs no allocation
// proportional to the program.
type fpWriter struct {
	h   hash.Hash
	buf [64]byte
	n   int
}

// room flushes the scratch array unless k more bytes fit.
func (w *fpWriter) room(k int) {
	if w.n+k > len(w.buf) {
		w.flush()
	}
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *fpWriter) u32(v uint32) {
	w.room(4)
	binary.LittleEndian.PutUint32(w.buf[w.n:], v)
	w.n += 4
}

func (w *fpWriter) u64(v uint64) {
	w.room(8)
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// str writes a length-prefixed string.
func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

// LabelAt returns the (sorted, "/"-joined) labels attached to instruction
// index i, or "".
func (p *Program) LabelAt(i int) string {
	var ls []string
	for name, idx := range p.Labels {
		if idx == i {
			ls = append(ls, name)
		}
	}
	slices.Sort(ls)
	return strings.Join(ls, "/")
}

// Validate checks structural well-formedness: control-transfer targets in
// range and aligned, register indices valid, and memory displacements
// aligned. The CFG builder and simulator both rely on a validated program.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("program %q: empty text segment", p.Name)
	}
	if p.Base%InstBytes != 0 {
		return fmt.Errorf("program %q: base 0x%x not %d-byte aligned", p.Name, p.Base, InstBytes)
	}
	for i, in := range p.Insts {
		if in.Op >= numOps {
			return fmt.Errorf("%s+%d: invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
			return fmt.Errorf("%s+%d: register out of range in %v", p.Name, i, in)
		}
		if in.IsBranch() || in.Op == J || in.Op == CALL {
			if p.Index(in.Target) < 0 {
				return fmt.Errorf("%s+%d: %v targets 0x%x outside text [0x%x,0x%x)",
					p.Name, i, in, in.Target, p.Base, p.End())
			}
		}
	}
	// Reporting the lowest misaligned address keeps the first-error
	// choice deterministic without sorting the whole image.
	bad, found := uint32(0), false
	//paralint:unordered a minimum over the keys does not depend on visit order
	for a := range p.Data {
		if a%4 != 0 && (!found || a < bad) {
			bad, found = a, true
		}
	}
	if found {
		return fmt.Errorf("program %q: misaligned data word at 0x%x", p.Name, bad)
	}
	return nil
}

// Disassemble renders the whole text segment with addresses and labels.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.Insts {
		if l := p.LabelAt(i); l != "" {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  0x%04x  %v\n", p.Addr(i), in)
	}
	return b.String()
}

// Builder assembles a Program programmatically. It is the API the
// workload generators use; hand-written benchmarks use the text assembler
// in asm.go instead. The zero Builder is not ready; use NewBuilder.
type Builder struct {
	prog    *Program
	pending map[string][]int // label -> instruction indices awaiting the label address
	dataPos uint32
	err     error
}

// NewBuilder returns a Builder for a program with the given name at the
// default base address.
func NewBuilder(name string) *Builder {
	return &Builder{
		prog: &Program{
			Name:       name,
			Base:       DefaultBase,
			Labels:     map[string]int{},
			Data:       map[uint32]int32{},
			DataLabels: map[string]uint32{},
		},
		pending: map[string][]int{},
		dataPos: 0x0002_0000,
	}
}

// SetBase overrides the text base address. Must be called before Emit.
func (b *Builder) SetBase(base uint32) *Builder {
	if len(b.prog.Insts) > 0 {
		b.fail(fmt.Errorf("SetBase after Emit"))
		return b
	}
	b.prog.Base = base
	return b
}

// SetDataBase moves the data cursor (before any DataWords call), so
// co-scheduled programs get disjoint data ranges.
func (b *Builder) SetDataBase(base uint32) *Builder {
	if len(b.prog.Data) > 0 {
		b.fail(fmt.Errorf("SetDataBase after DataWords"))
		return b
	}
	b.dataPos = base
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label attaches a code label to the next emitted instruction.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.prog.Labels[name]; dup {
		b.fail(fmt.Errorf("duplicate label %q", name))
		return b
	}
	b.prog.Labels[name] = len(b.prog.Insts)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in Inst) *Builder {
	b.prog.Insts = append(b.prog.Insts, in)
	return b
}

// emitTo appends a control transfer whose target label may be forward.
func (b *Builder) emitTo(in Inst, label string) *Builder {
	b.pending[label] = append(b.pending[label], len(b.prog.Insts))
	return b.Emit(in)
}

// Convenience emitters. Branch-style emitters take a label that may be
// defined later; Done resolves them.

// Halt appends a HALT.
func (b *Builder) Halt() *Builder { return b.Emit(Inst{Op: HALT}) }

// Li appends Rd = imm.
func (b *Builder) Li(rd Reg, imm int32) *Builder { return b.Emit(Inst{Op: LI, Rd: rd, Imm: imm}) }

// La appends Rd = address-of data label (resolved at Done time).
func (b *Builder) La(rd Reg, dataLabel string) *Builder {
	b.pending["data:"+dataLabel] = append(b.pending["data:"+dataLabel], len(b.prog.Insts))
	return b.Emit(Inst{Op: LI, Rd: rd})
}

// Mov appends Rd = Rs.
func (b *Builder) Mov(rd, rs Reg) *Builder { return b.Emit(Inst{Op: MOV, Rd: rd, Rs1: rs}) }

// Op3 appends a three-register ALU instruction.
func (b *Builder) Op3(op Op, rd, rs1, rs2 Reg) *Builder {
	return b.Emit(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpI appends a register-immediate ALU instruction.
func (b *Builder) OpI(op Op, rd, rs1 Reg, imm int32) *Builder {
	return b.Emit(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ld appends Rd = Mem[rs1+off].
func (b *Builder) Ld(rd, rs1 Reg, off int32) *Builder {
	return b.Emit(Inst{Op: LD, Rd: rd, Rs1: rs1, Imm: off})
}

// St appends Mem[rs1+off] = rs2.
func (b *Builder) St(rs2, rs1 Reg, off int32) *Builder {
	return b.Emit(Inst{Op: ST, Rs2: rs2, Rs1: rs1, Imm: off})
}

// Br appends a conditional branch to a label.
func (b *Builder) Br(op Op, rs1, rs2 Reg, label string) *Builder {
	return b.emitTo(Inst{Op: op, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp appends an unconditional jump to a label.
func (b *Builder) Jmp(label string) *Builder { return b.emitTo(Inst{Op: J}, label) }

// Call appends a CALL to a label.
func (b *Builder) Call(label string) *Builder { return b.emitTo(Inst{Op: CALL}, label) }

// DataWords places a labelled array of words in the data segment and
// returns its address.
func (b *Builder) DataWords(label string, words ...int32) uint32 {
	addr := b.dataPos
	if label != "" {
		if _, dup := b.prog.DataLabels[label]; dup {
			b.fail(fmt.Errorf("duplicate data label %q", label))
		}
		b.prog.DataLabels[label] = addr
	}
	for i, w := range words {
		b.prog.Data[addr+uint32(i)*4] = w
	}
	b.dataPos += uint32(len(words)) * 4
	// Keep arrays line-disjoint-ish: round up to the next 16-byte boundary
	// so distinct arrays do not silently share cache lines in experiments.
	b.dataPos = (b.dataPos + 15) &^ 15
	return addr
}

// Done resolves labels and validates the program.
func (b *Builder) Done() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Sorted labels keep the first-error choice deterministic.
	for _, label := range slices.Sorted(maps.Keys(b.pending)) {
		sites := b.pending[label]
		if dl, ok := strings.CutPrefix(label, "data:"); ok {
			addr, ok := b.prog.DataLabels[dl]
			if !ok {
				return nil, fmt.Errorf("undefined data label %q", dl)
			}
			for _, i := range sites {
				b.prog.Insts[i].Imm = int32(addr)
			}
			continue
		}
		idx, ok := b.prog.Labels[label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", label)
		}
		for _, i := range sites {
			b.prog.Insts[i].Target = b.prog.Addr(idx)
		}
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustDone is Done, panicking on error, for static fixtures where an
// error is a programming bug.
//
//paralint:testonly fixture builder for isa and smt tests
func (b *Builder) MustDone() *Program {
	p, err := b.Done()
	if err != nil {
		panic(err)
	}
	return p
}
