// Package workload provides the benchmark tasks the paratime experiments
// run: a Mälardalen-flavoured suite of small kernels (all loop bounds
// statically derivable or annotated) and a seeded generator of random
// structured programs for property testing. Every builder takes a text
// and data base so co-scheduled tasks occupy disjoint address ranges.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"paratime/internal/core"
	"paratime/internal/flow"
	"paratime/internal/isa"
)

// Bases identifies where a task lives in the address space.
type Bases struct {
	Text uint32
	Data uint32
}

// Slot returns canonical disjoint bases for co-scheduled task i. The
// bases are staggered by a non-multiple of common set counts so that
// co-scheduled tasks spread over different shared-cache sets instead of
// aliasing onto the same ones.
func Slot(i int) Bases {
	return Bases{
		Text: 0x1000 + uint32(i)*0x4000 + uint32(i)*0x220,
		Data: 0x0010_0000 + uint32(i)*0x1_0000 + uint32(i)*0x460,
	}
}

// Fib returns an iterative Fibonacci task: n additions in a counting loop.
func Fib(n int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("fib%d", n)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	b.Li(isa.R1, 0). // a
				Li(isa.R2, 1). // b
				Li(isa.R3, int32(n))
	b.Label("loop").
		Op3(isa.ADD, isa.R4, isa.R1, isa.R2).
		Mov(isa.R1, isa.R2).
		Mov(isa.R2, isa.R4).
		OpI(isa.ADDI, isa.R3, isa.R3, -1).
		Br(isa.BNE, isa.R3, isa.R0, "loop").
		Halt()
	p := mustProg(b)
	return core.Task{Name: p.Name, Prog: p}
}

// MatMult returns an n×n integer matrix multiply (three nested loops,
// strided array walks through A, B and C).
func MatMult(n int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("matmult%d", n)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	elems := make([]int32, n*n)
	for i := range elems {
		elems[i] = int32(i%7 + 1)
	}
	b.DataWords("A", elems...)
	b.DataWords("B", elems...)
	b.DataWords("C", make([]int32, n*n)...)
	stride := int32(4)
	rowBytes := int32(n) * 4
	// r1=i, r2=j, r3=k, r5=&A[i][0], r6=&B[0][j], r7=acc, r8=&C[i][j]
	b.Li(isa.R1, 0)
	b.Label("iloop").Li(isa.R2, 0)
	b.Label("jloop").Li(isa.R3, 0).Li(isa.R7, 0)
	// r5 = A + i*rowBytes ; r6 = B + j*4
	b.La(isa.R5, "A").Li(isa.R9, rowBytes).Op3(isa.MUL, isa.R10, isa.R1, isa.R9).Op3(isa.ADD, isa.R5, isa.R5, isa.R10)
	b.La(isa.R6, "B").Li(isa.R9, stride).Op3(isa.MUL, isa.R10, isa.R2, isa.R9).Op3(isa.ADD, isa.R6, isa.R6, isa.R10)
	b.Label("kloop").
		Ld(isa.R11, isa.R5, 0).
		Ld(isa.R12, isa.R6, 0).
		Op3(isa.MUL, isa.R11, isa.R11, isa.R12).
		Op3(isa.ADD, isa.R7, isa.R7, isa.R11).
		OpI(isa.ADDI, isa.R5, isa.R5, stride).
		OpI(isa.ADDI, isa.R6, isa.R6, rowBytes) // next row of B
	b.OpI(isa.ADDI, isa.R3, isa.R3, 1).
		Li(isa.R9, int32(n)).
		Br(isa.BLT, isa.R3, isa.R9, "kloop")
	// C[i][j] = acc
	b.La(isa.R8, "C").Li(isa.R9, rowBytes).Op3(isa.MUL, isa.R10, isa.R1, isa.R9).Op3(isa.ADD, isa.R8, isa.R8, isa.R10)
	b.Li(isa.R9, stride).Op3(isa.MUL, isa.R10, isa.R2, isa.R9).Op3(isa.ADD, isa.R8, isa.R8, isa.R10)
	b.St(isa.R7, isa.R8, 0)
	b.OpI(isa.ADDI, isa.R2, isa.R2, 1).
		Li(isa.R9, int32(n)).
		Br(isa.BLT, isa.R2, isa.R9, "jloop")
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1).
		Li(isa.R9, int32(n)).
		Br(isa.BLT, isa.R1, isa.R9, "iloop")
	b.Halt()
	prog := mustProg(b)
	facts := flow.NewFacts().
		Bound("kloop", n).
		Bound("jloop", n).
		Bound("iloop", n)
	return core.Task{Name: prog.Name, Prog: prog, Facts: facts}
}

// BSort returns a non-adaptive bubble sort over n elements (full passes,
// so every loop bound is derivable).
func BSort(n int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("bsort%d", n)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	elems := make([]int32, n)
	for i := range elems {
		elems[i] = int32((n*13 - i*7) % 50)
	}
	b.DataWords("arr", elems...)
	// r1 = pass counter, r2 = &arr[j], r3 = limit pointer
	b.Li(isa.R1, int32(n-1))
	b.Label("pass").La(isa.R2, "arr")
	b.La(isa.R3, "arr").OpI(isa.ADDI, isa.R3, isa.R3, int32((n-1)*4))
	b.Label("inner").
		Ld(isa.R4, isa.R2, 0).
		Ld(isa.R5, isa.R2, 4).
		Br(isa.BGE, isa.R5, isa.R4, "noswap").
		St(isa.R5, isa.R2, 0).
		St(isa.R4, isa.R2, 4)
	b.Label("noswap").
		OpI(isa.ADDI, isa.R2, isa.R2, 4).
		Br(isa.BNE, isa.R2, isa.R3, "inner").
		OpI(isa.ADDI, isa.R1, isa.R1, -1).
		Br(isa.BNE, isa.R1, isa.R0, "pass").
		Halt()
	return core.Task{Name: fmt.Sprintf("bsort%d", n), Prog: mustProg(b)}
}

// CRC returns a bitwise CRC-8 over an n-byte message (outer loop over
// bytes, fixed 8-iteration inner loop).
func CRC(n int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("crc%d", n)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	msg := make([]int32, n)
	for i := range msg {
		msg[i] = int32((i*37 + 11) & 0xff)
	}
	b.DataWords("msg", msg...)
	// r1=crc, r2=&msg[i], r3=end, r4=byte, r5=bit counter, r6=poly
	b.Li(isa.R1, 0).Li(isa.R6, 0x07)
	b.La(isa.R2, "msg")
	b.La(isa.R3, "msg").OpI(isa.ADDI, isa.R3, isa.R3, int32(n*4))
	b.Label("byte").
		Ld(isa.R4, isa.R2, 0).
		Op3(isa.XOR, isa.R1, isa.R1, isa.R4).
		Li(isa.R5, 8)
	b.Label("bit").
		OpI(isa.ANDI, isa.R7, isa.R1, 0x80).
		OpI(isa.SLLI, isa.R1, isa.R1, 1).
		Br(isa.BEQ, isa.R7, isa.R0, "nopoly").
		Op3(isa.XOR, isa.R1, isa.R1, isa.R6)
	b.Label("nopoly").
		OpI(isa.ANDI, isa.R1, isa.R1, 0xff).
		OpI(isa.ADDI, isa.R5, isa.R5, -1).
		Br(isa.BNE, isa.R5, isa.R0, "bit").
		OpI(isa.ADDI, isa.R2, isa.R2, 4).
		Br(isa.BNE, isa.R2, isa.R3, "byte").
		Halt()
	return core.Task{Name: fmt.Sprintf("crc%d", n), Prog: mustProg(b)}
}

// FIR returns an order-k FIR filter over an n-sample signal.
func FIR(n, k int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("fir%dx%d", n, k)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	sig := make([]int32, n+k)
	for i := range sig {
		sig[i] = int32(i%9 - 4)
	}
	coef := make([]int32, k)
	for i := range coef {
		coef[i] = int32(i + 1)
	}
	b.DataWords("sig", sig...)
	b.DataWords("coef", coef...)
	b.DataWords("out", make([]int32, n)...)
	// r1 = sample idx, r2 = tap idx, r7 = acc
	b.Li(isa.R1, 0)
	b.Label("sample").Li(isa.R2, 0).Li(isa.R7, 0)
	b.Label("tap").
		La(isa.R5, "sig").
		Op3(isa.ADD, isa.R6, isa.R1, isa.R2).
		OpI(isa.SLLI, isa.R6, isa.R6, 2).
		Op3(isa.ADD, isa.R5, isa.R5, isa.R6).
		Ld(isa.R8, isa.R5, 0).
		La(isa.R5, "coef").
		OpI(isa.SLLI, isa.R6, isa.R2, 2).
		Op3(isa.ADD, isa.R5, isa.R5, isa.R6).
		Ld(isa.R9, isa.R5, 0).
		Op3(isa.MUL, isa.R8, isa.R8, isa.R9).
		Op3(isa.ADD, isa.R7, isa.R7, isa.R8).
		OpI(isa.ADDI, isa.R2, isa.R2, 1).
		OpI(isa.SLTI, isa.R10, isa.R2, int32(k)).
		Br(isa.BNE, isa.R10, isa.R0, "tap")
	b.La(isa.R5, "out").
		OpI(isa.SLLI, isa.R6, isa.R1, 2).
		Op3(isa.ADD, isa.R5, isa.R5, isa.R6).
		St(isa.R7, isa.R5, 0).
		OpI(isa.ADDI, isa.R1, isa.R1, 1).
		OpI(isa.SLTI, isa.R10, isa.R1, int32(n)).
		Br(isa.BNE, isa.R10, isa.R0, "sample").
		Halt()
	facts := flow.NewFacts().Bound("tap", k).Bound("sample", n)
	return core.Task{Name: fmt.Sprintf("fir%dx%d", n, k), Prog: mustProg(b), Facts: facts}
}

// MemCopy copies n words between disjoint arrays.
func MemCopy(n int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("memcopy%d", n)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	b.DataWords("src", src...)
	b.DataWords("dst", make([]int32, n)...)
	b.La(isa.R1, "src").La(isa.R2, "dst")
	b.La(isa.R3, "src").OpI(isa.ADDI, isa.R3, isa.R3, int32(n*4))
	b.Label("loop").
		Ld(isa.R4, isa.R1, 0).
		St(isa.R4, isa.R2, 0).
		OpI(isa.ADDI, isa.R1, isa.R1, 4).
		OpI(isa.ADDI, isa.R2, isa.R2, 4).
		Br(isa.BNE, isa.R1, isa.R3, "loop").
		Halt()
	return core.Task{Name: fmt.Sprintf("memcopy%d", n), Prog: mustProg(b)}
}

// CountBits counts set bits over n words with an inner bit loop.
func CountBits(n int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("countbits%d", n)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	words := make([]int32, n)
	for i := range words {
		words[i] = int32(i*2654435761 + 12345)
	}
	b.DataWords("w", words...)
	b.La(isa.R1, "w")
	b.La(isa.R2, "w").OpI(isa.ADDI, isa.R2, isa.R2, int32(n*4))
	b.Li(isa.R7, 0)
	b.Label("word").Ld(isa.R3, isa.R1, 0).Li(isa.R4, 32)
	b.Label("bit").
		OpI(isa.ANDI, isa.R5, isa.R3, 1).
		Op3(isa.ADD, isa.R7, isa.R7, isa.R5).
		OpI(isa.SRLI, isa.R3, isa.R3, 1).
		OpI(isa.ADDI, isa.R4, isa.R4, -1).
		Br(isa.BNE, isa.R4, isa.R0, "bit").
		OpI(isa.ADDI, isa.R1, isa.R1, 4).
		Br(isa.BNE, isa.R1, isa.R2, "word").
		Halt()
	return core.Task{Name: fmt.Sprintf("countbits%d", n), Prog: mustProg(b)}
}

// Thrasher writes stride-spaced lines across span bytes — the adversarial
// co-runner of the shared-cache experiments.
func Thrasher(span, stride int, at Bases) core.Task {
	return LongThrasher(span, stride, 1, at)
}

// LongThrasher repeats the thrashing sweep passes times, to keep
// interference pressure alive for the whole victim execution.
func LongThrasher(span, stride, passes int, at Bases) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("thrash%dx%d", span, passes)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	b.DataWords("buf", make([]int32, span/4)...)
	b.Li(isa.R5, int32(passes))
	b.Label("pass").La(isa.R1, "buf")
	b.La(isa.R2, "buf").OpI(isa.ADDI, isa.R2, isa.R2, int32(span))
	b.Label("loop").
		St(isa.R3, isa.R1, 0).
		OpI(isa.ADDI, isa.R1, isa.R1, int32(stride)).
		Br(isa.BNE, isa.R1, isa.R2, "loop").
		OpI(isa.ADDI, isa.R5, isa.R5, -1).
		Br(isa.BNE, isa.R5, isa.R0, "pass").
		Halt()
	return core.Task{Name: fmt.Sprintf("thrash%dx%d", span, passes), Prog: mustProg(b)}
}

// Suite returns the standard benchmark set at disjoint bases.
func Suite() []core.Task {
	return []core.Task{
		Fib(24, Slot(0)),
		MatMult(4, Slot(1)),
		BSort(12, Slot(2)),
		CRC(16, Slot(3)),
		FIR(16, 4, Slot(4)),
		MemCopy(32, Slot(5)),
		CountBits(8, Slot(6)),
	}
}

// singles maps every individually addressable benchmark to its builder.
// The names double as the task-set vocabulary of sweep documents: a
// sweep axis entry is either one of these, "suite", or a "+"-joined
// combination ("fib24+crc16") placed at canonical slots in list order.
var singles = map[string]func(at Bases) core.Task{
	"fib24":      func(at Bases) core.Task { return Fib(24, at) },
	"matmult4":   func(at Bases) core.Task { return MatMult(4, at) },
	"bsort12":    func(at Bases) core.Task { return BSort(12, at) },
	"crc16":      func(at Bases) core.Task { return CRC(16, at) },
	"fir16x4":    func(at Bases) core.Task { return FIR(16, 4, at) },
	"memcopy32":  func(at Bases) core.Task { return MemCopy(32, at) },
	"countbits8": func(at Bases) core.Task { return CountBits(8, at) },
}

// SetNames returns the registered task-set vocabulary in sorted order:
// every single benchmark name plus "suite". Composite sets are formed by
// joining singles with "+".
func SetNames() []string {
	names := make([]string, 0, len(singles)+1)
	for name := range singles {
		names = append(names, name)
	}
	names = append(names, "suite")
	slices.Sort(names)
	return names
}

// Set resolves a named task set: "suite" for the full benchmark suite,
// a single benchmark name ("fib24"), or a "+"-joined combination
// ("fib24+crc16+thrash"). Tasks are materialized at canonical disjoint
// slots in list order, so the same name always produces byte-identical
// programs. Unknown names return an error listing the vocabulary.
func Set(name string) ([]core.Task, error) {
	if name == "suite" {
		return Suite(), nil
	}
	builds, err := resolveSet(name)
	if err != nil {
		return nil, err
	}
	tasks := make([]core.Task, len(builds))
	for i, build := range builds {
		tasks[i] = build(Slot(i))
	}
	return tasks, nil
}

// CheckSet reports whether Set would resolve name, with Set's error,
// without assembling any program.
func CheckSet(name string) error {
	if name == "suite" {
		return nil
	}
	_, err := resolveSet(name)
	return err
}

// resolveSet maps a "+"-joined task-set name (not "suite") to the
// builders of its components, in list order.
func resolveSet(name string) ([]func(at Bases) core.Task, error) {
	parts := strings.Split(name, "+")
	builds := make([]func(at Bases) core.Task, len(parts))
	for i, part := range parts {
		build, ok := singles[part]
		if !ok {
			return nil, fmt.Errorf("workload: unknown task set %q (component %q; known: %s, joined with \"+\")",
				name, part, strings.Join(SetNames(), " "))
		}
		builds[i] = build
	}
	return builds, nil
}

// Random returns a seeded random structured program: a loop nest of
// bounded counting loops with arithmetic and strided memory bodies. All
// bounds derive automatically; the generator is the property-test fuel.
//
//paralint:testonly random programs for the cache, ipet, arbiter and facade property tests
func Random(seed int64, at Bases) core.Task {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder(fmt.Sprintf("rand%d", seed)).SetBase(at.Text)
	b.SetDataBase(at.Data)
	n := 8 + rng.Intn(24)
	arr := make([]int32, n)
	for i := range arr {
		arr[i] = int32(rng.Intn(100))
	}
	b.DataWords("arr", arr...)
	depth := 1 + rng.Intn(2)
	counters := []isa.Reg{isa.R1, isa.R2}
	for d := 0; d < depth; d++ {
		b.Li(counters[d], int32(1+rng.Intn(6)))
		b.Label(fmt.Sprintf("l%d", d))
	}
	// Body: some arithmetic and a bounded array walk.
	b.La(isa.R3, "arr")
	b.La(isa.R4, "arr").OpI(isa.ADDI, isa.R4, isa.R4, int32(n*4))
	b.Label("walk").
		Ld(isa.R5, isa.R3, 0).
		Op3(isa.ADD, isa.R6, isa.R6, isa.R5).
		OpI(isa.ADDI, isa.R3, isa.R3, 4).
		Br(isa.BNE, isa.R3, isa.R4, "walk")
	if rng.Intn(2) == 0 {
		b.Op3(isa.MUL, isa.R7, isa.R6, isa.R6)
	}
	for d := depth - 1; d >= 0; d-- {
		b.OpI(isa.ADDI, counters[d], counters[d], -1).
			Br(isa.BNE, counters[d], isa.R0, fmt.Sprintf("l%d", d))
	}
	b.Halt()
	return core.Task{Name: fmt.Sprintf("rand%d", seed), Prog: mustProg(b)}
}

func mustProg(b *isa.Builder) *isa.Program {
	p, err := b.Done()
	if err != nil {
		panic(err)
	}
	return p
}
