package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{R0: "r0", R7: "r7", SP: "sp", RA: "ra"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Op]Class{
		NOP: ClassNop, HALT: ClassHalt,
		ADD: ClassALU, ADDI: ClassALU, LI: ClassALU, SLT: ClassALU,
		MUL: ClassMul, DIV: ClassDiv, REM: ClassDiv,
		LD: ClassLoad, ST: ClassStore,
		BEQ: ClassBranch, BGE: ClassBranch,
		J: ClassJump, CALL: ClassJump, RET: ClassJump,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestInstPredicates(t *testing.T) {
	if !(Inst{Op: BEQ}).IsBranch() || (Inst{Op: J}).IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	for _, op := range []Op{BEQ, BNE, BLT, BGE, J, CALL, RET, HALT} {
		if !(Inst{Op: op}).IsControl() {
			t.Errorf("%v should be control", op)
		}
	}
	for _, op := range []Op{ADD, LD, ST, NOP, LI} {
		if (Inst{Op: op}).IsControl() {
			t.Errorf("%v should not be control", op)
		}
	}
	if !(Inst{Op: LD}).IsMem() || !(Inst{Op: ST}).IsMem() || (Inst{Op: ADD}).IsMem() {
		t.Error("IsMem misclassifies")
	}
}

func TestProgramAddrIndexRoundTrip(t *testing.T) {
	p := NewBuilder("t").Emit(Inst{Op: NOP}).Emit(Inst{Op: NOP}).Halt().MustDone()
	for i := range p.Insts {
		if got := p.Index(p.Addr(i)); got != i {
			t.Errorf("Index(Addr(%d)) = %d", i, got)
		}
	}
	if p.Index(p.Base-4) != -1 || p.Index(p.End()) != -1 || p.Index(p.Base+1) != -1 {
		t.Error("Index should reject out-of-range or misaligned addresses")
	}
}

func TestValidateRejectsBadTarget(t *testing.T) {
	p := &Program{Name: "bad", Base: DefaultBase, Insts: []Inst{{Op: J, Target: 0}}}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range jump target")
	}
}

func TestValidateRejectsEmptyAndMisaligned(t *testing.T) {
	if err := (&Program{Name: "e", Base: DefaultBase}).Validate(); err == nil {
		t.Error("empty program accepted")
	}
	p := &Program{Name: "m", Base: DefaultBase + 2, Insts: []Inst{{Op: NOP}}}
	if err := p.Validate(); err == nil {
		t.Error("misaligned base accepted")
	}
	p2 := NewBuilder("d").Halt().MustDone()
	p2.Data[3] = 1
	if err := p2.Validate(); err == nil {
		t.Error("misaligned data word accepted")
	}
}

func TestBuilderForwardLabels(t *testing.T) {
	p, err := NewBuilder("fwd").
		Li(R1, 3).
		Label("loop").OpI(ADDI, R1, R1, -1).
		Br(BNE, R1, R0, "loop").
		Jmp("end").
		Emit(Inst{Op: NOP}).
		Label("end").Halt().
		Done()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[2].Target != p.Addr(1) {
		t.Errorf("backward branch target = 0x%x, want 0x%x", p.Insts[2].Target, p.Addr(1))
	}
	if p.Insts[3].Target != p.Addr(5) {
		t.Errorf("forward jump target = 0x%x, want 0x%x", p.Insts[3].Target, p.Addr(5))
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Jmp("nowhere").Halt().Done(); err == nil {
		t.Error("undefined label accepted")
	}
	if _, err := NewBuilder("x").Label("a").Label("a").Halt().Done(); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewBuilder("x").La(R1, "noarr").Halt().Done(); err == nil {
		t.Error("undefined data label accepted")
	}
}

func TestDataWordsPlacement(t *testing.T) {
	b := NewBuilder("d")
	a1 := b.DataWords("xs", 1, 2, 3)
	a2 := b.DataWords("ys", 4)
	p := b.Halt().MustDone()
	if a1%4 != 0 || a2%4 != 0 {
		t.Fatal("unaligned data arrays")
	}
	if a2 <= a1+8 {
		t.Fatalf("arrays overlap: xs@0x%x ys@0x%x", a1, a2)
	}
	if p.Data[a1+8] != 3 || p.Data[a2] != 4 {
		t.Error("data image wrong")
	}
	if p.DataLabels["xs"] != a1 || p.DataLabels["ys"] != a2 {
		t.Error("data labels wrong")
	}
}

const countdownSrc = `
; counts r1 from 5 to 0, accumulating into r2
        li   r1, 5
        li   r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
`

func TestAssembleCountdown(t *testing.T) {
	p, err := Assemble("countdown", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 6 {
		t.Fatalf("got %d instructions, want 6", len(p.Insts))
	}
	st := NewState(p)
	if _, err := st.Run(1000); err != nil {
		t.Fatal(err)
	}
	if st.Reg[R2] != 15 {
		t.Errorf("r2 = %d, want 15", st.Reg[R2])
	}
	if st.Reg[R1] != 0 {
		t.Errorf("r1 = %d, want 0", st.Reg[R1])
	}
}

func TestAssembleDataAndMemory(t *testing.T) {
	src := `
        li   r1, arr
        ld   r2, 0(r1)
        ld   r3, 4(r1)
        add  r4, r2, r3
        st   r4, 8(r1)
        halt
.data 0x8000
arr:    .word 10 20 0
`
	p, err := Assemble("mem", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.DataLabels["arr"] != 0x8000 {
		t.Fatalf("arr at 0x%x, want 0x8000", p.DataLabels["arr"])
	}
	st := NewState(p)
	if _, err := st.Run(100); err != nil {
		t.Fatal(err)
	}
	if st.Mem[0x8008] != 30 {
		t.Errorf("arr[2] = %d, want 30", st.Mem[0x8008])
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frob r1, r2",          // unknown mnemonic
		"add r1, r2",           // wrong arity
		"ld r1, r2",            // bad memory operand
		"li r99, 4\nhalt",      // bad register
		"beq r1, r2, 12",       // branch to non-label
		".word 1",              // .word outside .data
		"li r1, zzz\nhalt",     // undefined data label
		"x: nop\nx: nop\nhalt", // duplicate label
	}
	for _, src := range bad {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("Assemble accepted %q", src)
		}
	}
}

func TestAssembleDisassembleReassemble(t *testing.T) {
	p := MustAssemble("countdown", countdownSrc)
	dis := p.Disassemble()
	if !strings.Contains(dis, "addi r1, r1, -1") {
		t.Errorf("disassembly missing addi line:\n%s", dis)
	}
	if !strings.Contains(dis, "loop:") {
		t.Errorf("disassembly missing label:\n%s", dis)
	}
}

func TestExecCallRet(t *testing.T) {
	src := `
        li   r1, 7
        call double
        call double
        halt
double: add r1, r1, r1
        ret
`
	st := NewState(MustAssemble("callret", src))
	if _, err := st.Run(100); err != nil {
		t.Fatal(err)
	}
	if st.Reg[R1] != 28 {
		t.Errorf("r1 = %d, want 28", st.Reg[R1])
	}
}

func TestExecR0IsZero(t *testing.T) {
	st := NewState(MustAssemble("r0", "li r0, 42\nadd r1, r0, r0\nhalt"))
	if _, err := st.Run(10); err != nil {
		t.Fatal(err)
	}
	if st.Reg[R0] != 0 || st.Reg[R1] != 0 {
		t.Errorf("r0 = %d r1 = %d, want 0 0", st.Reg[R0], st.Reg[R1])
	}
}

func TestExecDivRemByZero(t *testing.T) {
	st := NewState(MustAssemble("div0", "li r1, 9\ndiv r2, r1, r0\nrem r3, r1, r0\nhalt"))
	if _, err := st.Run(10); err != nil {
		t.Fatal(err)
	}
	if st.Reg[R2] != 0 || st.Reg[R3] != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", st.Reg[R2], st.Reg[R3])
	}
}

func TestExecFuelExhaustion(t *testing.T) {
	st := NewState(MustAssemble("spin", "loop: j loop"))
	if _, err := st.Run(50); err == nil {
		t.Error("diverging program did not report fuel exhaustion")
	}
}

func TestExecMisalignedAccess(t *testing.T) {
	st := NewState(MustAssemble("mis", "li r1, 2\nld r2, 0(r1)\nhalt"))
	if _, err := st.Run(10); err == nil {
		t.Error("misaligned load not faulted")
	}
}

func TestExecTraceOrder(t *testing.T) {
	src := `
        li r1, 0x8000
        ld r2, 0(r1)
        st r2, 4(r1)
        halt
`
	st := NewState(MustAssemble("trace", src))
	var evs []TraceEvent
	st.Trace = func(e TraceEvent) { evs = append(evs, e) }
	if _, err := st.Run(10); err != nil {
		t.Fatal(err)
	}
	// 4 fetches + 1 load + 1 store.
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	if evs[2].Kind != TraceLoad || evs[2].Addr != 0x8000 {
		t.Errorf("event 2 = %+v, want load @0x8000", evs[2])
	}
	if evs[4].Kind != TraceStore || evs[4].Addr != 0x8004 {
		t.Errorf("event 4 = %+v, want store @0x8004", evs[4])
	}
}

// TestALUSemanticsQuick cross-checks executor ALU results against direct
// Go arithmetic over random operands.
func TestALUSemanticsQuick(t *testing.T) {
	ops := []struct {
		op   Op
		gold func(a, b int32) int32
	}{
		{ADD, func(a, b int32) int32 { return a + b }},
		{SUB, func(a, b int32) int32 { return a - b }},
		{MUL, func(a, b int32) int32 { return a * b }},
		{AND, func(a, b int32) int32 { return a & b }},
		{OR, func(a, b int32) int32 { return a | b }},
		{XOR, func(a, b int32) int32 { return a ^ b }},
		{SLL, func(a, b int32) int32 { return a << (uint32(b) & 31) }},
		{SRL, func(a, b int32) int32 { return int32(uint32(a) >> (uint32(b) & 31)) }},
		{SRA, func(a, b int32) int32 { return a >> (uint32(b) & 31) }},
		{SLT, func(a, b int32) int32 { return boolToInt(a < b) }},
		{DIV, func(a, b int32) int32 {
			switch {
			case b == 0:
				return 0
			case a == -1<<31 && b == -1:
				return -1 << 31
			default:
				return a / b
			}
		}},
		{REM, func(a, b int32) int32 {
			switch {
			case b == 0:
				return 0
			case a == -1<<31 && b == -1:
				return 0
			default:
				return a % b
			}
		}},
	}
	for _, tc := range ops {
		tc := tc
		f := func(a, b int32) bool {
			p := NewBuilder("q").
				Li(R1, a).Li(R2, b).
				Op3(tc.op, R3, R1, R2).
				Halt().MustDone()
			st := NewState(p)
			if _, err := st.Run(10); err != nil {
				return false
			}
			return st.Reg[R3] == tc.gold(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", tc.op, err)
		}
	}
}

func TestFingerprint(t *testing.T) {
	asm := func(src string) *Program { return MustAssemble("fp", src) }
	base := `
        li   r1, 10
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`
	if asm(base).Fingerprint() != asm(base).Fingerprint() {
		t.Error("identical programs fingerprint differently")
	}
	// Identical instruction stream (same branch targets), an extra label
	// on different instructions: flow annotations bind bounds by label,
	// so these must not share a memo key.
	markFirst := `
x:      li   r1, 10
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`
	markLast := `
        li   r1, 10
loop:   addi r1, r1, -1
        bne  r1, r0, loop
x:      halt`
	if asm(markFirst).Fingerprint() == asm(markLast).Fingerprint() {
		t.Error("label placement not part of the fingerprint")
	}
	changed := `
        li   r1, 11
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`
	if asm(base).Fingerprint() == asm(changed).Fingerprint() {
		t.Error("instruction change not part of the fingerprint")
	}
	rebased := asm(base)
	rebased.Rebase(0x2000)
	if asm(base).Fingerprint() == rebased.Fingerprint() {
		t.Error("base address not part of the fingerprint")
	}
}

// TestFingerprintLabelsInjective: label names are length-prefixed, so
// no spelling — "=", ";", "|", ":" or the empty label — can make two
// different label sets over the same text share a fingerprint.
func TestFingerprintLabelsInjective(t *testing.T) {
	src := `
        li   r1, 10
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        nop
        nop
        nop
        nop
        halt`
	with := func(labels map[string]int) *Program {
		p := MustAssemble("fp", src)
		p.Labels = labels
		return p
	}
	sets := []map[string]int{
		{},
		{"x=5;l:y": 7},
		{"x": 5, "y": 7},
		{"": 1, "a": 2},
		{"=1;l:a": 2},
		{"": 0},
		{"": 1},
		{"a|b": 1},
		{"a": 1, "|b": 1},
		{"a;": 1},
		{"a": 1, ";": 1},
	}
	seen := map[string]int{}
	for i, labels := range sets {
		fp := with(labels).Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("label sets %v and %v share fingerprint %s", sets[j], labels, fp)
		}
		seen[fp] = i
	}
}
