package cfg

import (
	"strings"
	"testing"

	"paratime/internal/isa"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := Build(isa.MustAssemble(t.Name(), src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStraightLine(t *testing.T) {
	g := build(t, "li r1, 1\nadd r2, r1, r1\nhalt")
	if got := len(g.Blocks); got != 2 { // one code block + exit
		t.Fatalf("blocks = %d, want 2\n%s", got, g.Dump())
	}
	if g.Entry.Len() != 3 {
		t.Errorf("entry block has %d instructions, want 3", g.Entry.Len())
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0].To != g.Exit {
		t.Errorf("entry should go straight to exit\n%s", g.Dump())
	}
	if len(g.Loops) != 0 {
		t.Errorf("unexpected loops: %v", g.Loops)
	}
}

func TestSingleLoop(t *testing.T) {
	g := build(t, `
        li   r1, 5
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(g.Loops), g.Dump())
	}
	l := g.Loops[0]
	if l.Depth != 1 || len(l.Blocks) != 1 {
		t.Errorf("loop = %v, want depth 1 with 1 block", l)
	}
	if len(l.BackEdges) != 1 || len(l.EntryEdges) != 1 || len(l.ExitEdges) != 1 {
		t.Errorf("loop edges back/entry/exit = %d/%d/%d, want 1/1/1",
			len(l.BackEdges), len(l.EntryEdges), len(l.ExitEdges))
	}
	if l.Header.loop != l {
		t.Error("header's innermost loop should be the loop itself")
	}
}

func TestNestedLoops(t *testing.T) {
	g := build(t, `
        li   r1, 3
outer:  li   r2, 4
inner:  addi r2, r2, -1
        bne  r2, r0, inner
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`)
	if len(g.Loops) != 2 {
		t.Fatalf("loops = %d, want 2\n%s", len(g.Loops), g.Dump())
	}
	outer, inner := g.Loops[0], g.Loops[1]
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Fatalf("depths = %d,%d want 1,2", outer.Depth, inner.Depth)
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent should be outer")
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer loop should contain inner header")
	}
	if inner.Header.loop != inner {
		t.Error("inner header's innermost loop wrong")
	}
}

func TestDiamondDominators(t *testing.T) {
	g := build(t, `
        li  r1, 1
        beq r1, r0, else
        addi r2, r0, 1
        j    join
else:   addi r2, r0, 2
join:   add  r3, r2, r2
        halt`)
	if len(g.Blocks) != 5 { // cond, then, else, join, exit
		t.Fatalf("blocks = %d, want 5\n%s", len(g.Blocks), g.Dump())
	}
	// Entry dominates everything; join's idom is the condition block.
	var join *Block
	for _, b := range g.Blocks {
		if !b.IsExit() && b != g.Entry && len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatalf("no join block found\n%s", g.Dump())
	}
	if join.idom != g.Entry {
		t.Errorf("join idom = %v, want entry", join.idom)
	}
	for _, b := range g.Blocks {
		if !g.Entry.Dominates(b) {
			t.Errorf("entry should dominate %v", b)
		}
	}
	if join.Dominates(g.Entry) {
		t.Error("join must not dominate entry")
	}
}

func TestCallInliningCopies(t *testing.T) {
	g := build(t, `
        call f
        call f
        halt
f:      addi r1, r1, 1
        ret`)
	// f's body must appear twice (two contexts).
	bodies := 0
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		if b.Insts()[len(b.Insts())-1].Op == isa.RET {
			bodies++
		}
	}
	if bodies != 2 {
		t.Fatalf("inlined callee bodies = %d, want 2\n%s", bodies, g.Dump())
	}
	// Contexts must differ.
	ctxs := map[string]bool{}
	for _, b := range g.Blocks {
		if !b.IsExit() && len(b.Insts()) > 0 && b.Insts()[len(b.Insts())-1].Op == isa.RET {
			ctxs[b.Ctx] = true
		}
	}
	if len(ctxs) != 2 {
		t.Errorf("contexts = %v, want 2 distinct", ctxs)
	}
}

func TestNestedCalls(t *testing.T) {
	g := build(t, `
        call f
        halt
f:      call gg
        call gg
        ret
gg:     addi r1, r1, 1
        ret`)
	// gg appears twice, f once; total RET-terminated blocks = 3.
	rets := 0
	for _, b := range g.Blocks {
		if !b.IsExit() && b.Insts()[len(b.Insts())-1].Op == isa.RET {
			rets++
		}
	}
	if rets != 3 {
		t.Fatalf("ret blocks = %d, want 3\n%s", rets, g.Dump())
	}
}

func TestRecursionRejected(t *testing.T) {
	_, err := Build(isa.MustAssemble("rec", `
        call f
        halt
f:      call f
        ret`))
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("want recursion error, got %v", err)
	}
}

func TestMutualRecursionRejected(t *testing.T) {
	_, err := Build(isa.MustAssemble("rec2", `
        call f
        halt
f:      call gg
        ret
gg:     call f
        ret`))
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("want recursion error, got %v", err)
	}
}

func TestIrreducibleRejected(t *testing.T) {
	_, err := Build(isa.MustAssemble("irr", `
        li  r1, 1
        beq r1, r0, b
a:      addi r1, r1, 1
b:      addi r1, r1, -1
        bne  r1, r0, a
        halt`))
	if err == nil || !strings.Contains(err.Error(), "irreducible") {
		t.Fatalf("want irreducibility error, got %v", err)
	}
}

func TestNonTerminatingRejected(t *testing.T) {
	_, err := Build(isa.MustAssemble("spin", "loop: j loop"))
	if err == nil {
		t.Fatal("want error for program with no HALT")
	}
}

func TestTopLevelRetIsExit(t *testing.T) {
	// A task written as a procedure: top-level RET terminates it.
	g := build(t, "addi r1, r0, 1\nret")
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit preds = %d, want 1", len(g.Exit.Preds))
	}
}

func TestNeverReturningCalleePrunes(t *testing.T) {
	g := build(t, `
        call f
        addi r1, r0, 1   ; unreachable continuation
        halt
f:      halt`)
	for _, b := range g.Blocks {
		for _, in := range func() []isa.Inst {
			if b.IsExit() {
				return nil
			}
			return b.Insts()
		}() {
			if in.Op == isa.ADDI {
				t.Errorf("unreachable continuation not pruned\n%s", g.Dump())
			}
		}
	}
}

func TestRPOTopologicalOnForwardEdges(t *testing.T) {
	g := build(t, `
        li   r1, 3
outer:  li   r2, 4
inner:  addi r2, r2, -1
        bne  r2, r0, inner
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`)
	for _, e := range g.Edges {
		back := e.To.Dominates(e.From)
		if !back && e.From.RPO() >= e.To.RPO() {
			t.Errorf("forward edge %v violates RPO order (%d >= %d)", e, e.From.RPO(), e.To.RPO())
		}
	}
	if g.Entry.RPO() != 0 {
		t.Errorf("entry RPO = %d, want 0", g.Entry.RPO())
	}
}

func TestMultiBackEdgeLoopMerged(t *testing.T) {
	g := build(t, `
        li   r1, 9
loop:   addi r1, r1, -1
        beq  r1, r0, out
        slti r2, r1, 5
        bne  r2, r0, loop
        j    loop
out:    halt`)
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d, want 1 (merged header)\n%s", len(g.Loops), g.Dump())
	}
	if len(g.Loops[0].BackEdges) != 2 {
		t.Errorf("back edges = %d, want 2", len(g.Loops[0].BackEdges))
	}
}

func TestDumpRender(t *testing.T) {
	g := build(t, "li r1, 2\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt")
	if d := g.Dump(); !strings.Contains(d, "loop@") {
		t.Errorf("Dump missing loop info:\n%s", d)
	}
}

func TestBlockInstsAndAddr(t *testing.T) {
	g := build(t, "li r1, 1\nadd r2, r1, r1\nhalt")
	b := g.Entry
	if b.Addr(0) != g.Prog.Base || b.Addr(1) != g.Prog.Base+4 {
		t.Error("block addressing wrong")
	}
	if b.Insts()[1].Op != isa.ADD {
		t.Error("Insts slice wrong")
	}
}
