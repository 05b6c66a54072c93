package pipeline

import (
	"fmt"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/isa"
)

// Benchmarks compare the compiled model (Compile + Compiled.AnalyzeCosts,
// dense worklist fixpoint) against the retired map-based round-robin
// implementation, which lives on in oracle_test.go. Both run on the same
// graphs with the same timing functions, so the *Oracle numbers are a
// reproducible "before" for the layer; perfbench measures the whole
// analysis end to end.

// benchSmall is a matmult-shaped triple loop nest (the heaviest suite
// task's shape).
func benchSmall(b *testing.B) *cfg.Graph {
	b.Helper()
	src := `
        li   r1, 8
iloop:  li   r2, 8
jloop:  li   r3, 8
        li   r4, 0
kloop:  ld   r5, 0(r10)
        ld   r6, 0(r11)
        mul  r7, r5, r6
        add  r4, r4, r7
        addi r10, r10, 4
        addi r11, r11, 32
        addi r3, r3, -1
        bne  r3, r0, kloop
        st   r4, 0(r12)
        addi r12, r12, 4
        addi r2, r2, -1
        bne  r2, r0, jloop
        addi r1, r1, -1
        bne  r1, r0, iloop
        halt`
	g, err := cfg.Build(isa.MustAssemble("benchsmall", src))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchLarge chains eight distinct loop nests with data-dependent
// branches (~70 blocks): the shape of a whole-task analysis, where the
// retired implementation re-executed every block each round.
func benchLarge(b *testing.B) *cfg.Graph {
	b.Helper()
	src := ""
	for k := 0; k < 8; k++ {
		src += fmt.Sprintf(`
        li   r1, %d
outer%d: li   r2, %d
inner%d: ld   r3, 0(r8)
        mul  r4, r3, r3
        andi r5, r2, 1
        beq  r5, r0, even%d
        div  r6, r4, r2
        j    join%d
even%d:  add  r6, r6, r4
join%d:  st   r6, 4(r8)
        addi r8, r8, 8
        addi r2, r2, -1
        bne  r2, r0, inner%d
        addi r1, r1, -1
        bne  r1, r0, outer%d
`, 4+k, k, 3+k, k, k, k, k, k, k, k)
	}
	src += "        halt\n"
	g, err := cfg.Build(isa.MustAssemble("benchlarge", src))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchTiming is a deterministic per-instruction latency mix with
// occasional miss-port transactions, approximating a post-classification
// table. delay skews the miss charges like a bus-arbitration bound does.
func benchTiming(delay int) TimingFn {
	return func(b *cfg.Block, i int) InstTiming {
		h := uint32(b.ID)*2654435761 + uint32(i)*40503
		t := InstTiming{Fetch: 1, Mem: 1}
		if h%7 == 0 {
			t.Fetch, t.FetchMiss = 9+delay, true
		}
		if h%5 == 0 {
			t.Mem, t.MemMiss = 13+delay, true
		}
		return t
	}
}

func flatBase(b *cfg.Block, i int) InstTiming { return InstTiming{Fetch: 1, Mem: 1} }

func benchAnalyzeCompiled(b *testing.B, g *cfg.Graph) {
	b.Helper()
	c := Compile(g)
	pc := DefaultConfig()
	worst := benchTiming(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AnalyzeCosts(pc, worst, flatBase); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAnalyzeOracle(b *testing.B, g *cfg.Graph) {
	b.Helper()
	pc := DefaultConfig()
	worst := benchTiming(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleAnalyzeCosts(g, pc, worst, flatBase); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeCosts / BenchmarkAnalyzeCostsOracle: one context
// fixpoint plus per-block pricing, compiled model (reused across calls,
// the core.Prepare shape) vs the retired implementation.
func BenchmarkAnalyzeCosts(b *testing.B)       { benchAnalyzeCompiled(b, benchSmall(b)) }
func BenchmarkAnalyzeCostsOracle(b *testing.B) { benchAnalyzeOracle(b, benchSmall(b)) }

// ...Large: the whole-task shape, where worklist dedup pays most.
func BenchmarkAnalyzeCostsLarge(b *testing.B)       { benchAnalyzeCompiled(b, benchLarge(b)) }
func BenchmarkAnalyzeCostsLargeOracle(b *testing.B) { benchAnalyzeOracle(b, benchLarge(b)) }

// BenchmarkAnalyzeCostsSweep re-prices one task under eight latency
// assignments — the pipeline layer's share of an arbiter sweep (e12/e13:
// same program, bus-delay-dependent miss charges). The compiled variant
// compiles once, like engine sweeps over a memoized Prepare.
func BenchmarkAnalyzeCostsSweep(b *testing.B) {
	g := benchLarge(b)
	c := Compile(g)
	pc := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < 8; d++ {
			if _, err := c.AnalyzeCosts(pc, benchTiming(d), flatBase); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAnalyzeCostsSweepOracle(b *testing.B) {
	g := benchLarge(b)
	pc := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < 8; d++ {
			if _, err := oracleAnalyzeCosts(g, pc, benchTiming(d), flatBase); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExecBlock prices one straight-line block from a fixed context
// on the compiled model — the fixpoint's hot loop, which must not
// allocate — vs the retired per-instruction loop (SrcRegs slices, ExLat
// map lookups).
func BenchmarkExecBlock(b *testing.B) {
	g := benchSmall(b)
	c := Compile(g)
	pc := DefaultConfig()
	lt := pc.Latencies()
	blk := biggestBlock(g)
	tim := benchTiming(0)
	in := EntryContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ExecBlock(&lt, blk, tim, in)
	}
}

func BenchmarkExecBlockOracle(b *testing.B) {
	g := benchSmall(b)
	pc := DefaultConfig()
	blk := biggestBlock(g)
	tim := benchTiming(0)
	in := EntryContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oracleExec(pc, blk, tim, in)
	}
}

func biggestBlock(g *cfg.Graph) *cfg.Block {
	blk := g.Entry
	for _, cand := range g.Blocks {
		if !cand.IsExit() && cand.Len() > blk.Len() {
			blk = cand
		}
	}
	return blk
}
