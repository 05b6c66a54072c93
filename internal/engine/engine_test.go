package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"paratime/internal/cache"
	"paratime/internal/cachestore"
	"paratime/internal/core"
	"paratime/internal/flow"
	"paratime/internal/interfere"
	"paratime/internal/memctrl"
	"paratime/internal/workload"
)

func testSys() core.SystemConfig {
	sys := core.DefaultSystem()
	sys.Mem.MemLatency = memctrl.DefaultConfig().Bound()
	return sys
}

// TestAnalyzeAllMatchesSequential: the pooled batch path must be
// bit-identical to looping core.Analyze — same WCETs, same
// classification counts.
func TestAnalyzeAllMatchesSequential(t *testing.T) {
	sys := testSys()
	tasks := workload.Suite()
	as, err := New(0).AnalyzeAll(context.Background(), Requests(tasks, sys))
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		ref, err := core.Analyze(task, sys)
		if err != nil {
			t.Fatal(err)
		}
		if as[i].WCET != ref.WCET {
			t.Errorf("%s: engine WCET %d != sequential %d", task.Name, as[i].WCET, ref.WCET)
		}
		if got, want := as[i].ClassSummary(), ref.ClassSummary(); got != want {
			t.Errorf("%s: classes %q != %q", task.Name, got, want)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS: the full suite analyzed at
// GOMAXPROCS=1 and GOMAXPROCS=8 must yield identical WCETs (the
// acceptance bar for a deterministic WCET tool).
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	sys := testSys()
	tasks := workload.Suite()
	wcets := func(procs int) []int64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		as, err := New(0).AnalyzeAll(context.Background(), Requests(tasks, sys))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(as))
		for i, a := range as {
			out[i] = a.WCET
		}
		return out
	}
	w1, w8 := wcets(1), wcets(8)
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Errorf("%s: WCET %d at GOMAXPROCS=1 vs %d at GOMAXPROCS=8",
				tasks[i].Name, w1[i], w8[i])
		}
	}
}

// TestMemoReuseAcrossBusSweep: the same task under different bus bounds
// shares one prepared prefix (bus delay only enters at pricing), and the
// memoized results still match direct analysis.
func TestMemoReuseAcrossBusSweep(t *testing.T) {
	e := New(0)
	task := workload.CRC(8, workload.Slot(0))
	var reqs []Request
	delays := []int{0, 7, 23, 95}
	for _, d := range delays {
		sys := testSys()
		sys.Mem.BusDelay = d
		reqs = append(reqs, Request{Task: task, Sys: sys})
	}
	as, err := e.AnalyzeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.Stats()
	if misses != 1 || hits != uint64(len(delays)-1) {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, len(delays)-1)
	}
	prev := int64(-1)
	for i, a := range as {
		ref, err := core.Analyze(task, reqs[i].Sys)
		if err != nil {
			t.Fatal(err)
		}
		if a.WCET != ref.WCET {
			t.Errorf("delay %d: memoized WCET %d != direct %d", delays[i], a.WCET, ref.WCET)
		}
		if a.WCET <= prev {
			t.Errorf("delay %d: WCET %d not increasing with bus delay", delays[i], a.WCET)
		}
		prev = a.WCET
	}
	want := float64(hits) / float64(hits+misses)
	if got := e.ReuseRatio(); got != want {
		t.Errorf("ReuseRatio() = %v, want %v", got, want)
	}
}

// TestReuseRatioZeroBeforeLookups: an untouched engine reports 0, not
// NaN.
func TestReuseRatioZeroBeforeLookups(t *testing.T) {
	if got := New(0).ReuseRatio(); got != 0 {
		t.Errorf("ReuseRatio() = %v on a fresh engine, want 0", got)
	}
}

// TestCloneIsolation: two clones of one memoized Prepare must not leak
// mutations into each other — reclassifying one (the joint-analysis
// mutation) leaves the other's WCET at the solo value.
func TestCloneIsolation(t *testing.T) {
	e := New(1)
	task := workload.CRC(8, workload.Slot(0))
	sys := testSys()
	as, err := e.PrepareAll(context.Background(), Requests([]core.Task{task, task}, sys))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}
	// Corrupt every L2 set of the first clone.
	shift := make([]int, as[0].L2.Cfg.Sets)
	for s := range shift {
		shift[s] = as[0].L2.Cfg.Ways
	}
	as[0].L2.ReclassifyShift(shift)
	if err := as[0].ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	if err := as[1].ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	ref, err := core.Analyze(task, sys)
	if err != nil {
		t.Fatal(err)
	}
	if as[1].WCET != ref.WCET {
		t.Errorf("untouched clone WCET %d != solo %d (mutation leaked)", as[1].WCET, ref.WCET)
	}
	if as[0].WCET <= as[1].WCET {
		t.Errorf("corrupted clone WCET %d not above solo %d", as[0].WCET, as[1].WCET)
	}
	checkPricedSolo(t, e, task, sys, ref.WCET)
}

// checkPricedSolo: after a PrepareAll clone of task was reclassified,
// an AnalyzeAll of the same key, which prices the memo entry itself,
// still gives the solo WCET.
func checkPricedSolo(t *testing.T, e *Engine, task core.Task, sys core.SystemConfig, solo int64) {
	t.Helper()
	as, err := e.AnalyzeAll(context.Background(), Requests([]core.Task{task}, sys))
	if err != nil {
		t.Fatal(err)
	}
	if as[0].WCET != solo {
		t.Errorf("AnalyzeAll after a reclassified clone: WCET %d != solo %d (mutation reached the memo)", as[0].WCET, solo)
	}
}

// TestAnalyzeAllSharesClassification: AnalyzeAll prices shallow copies
// of the memo entry. Results of one key share its L2 result and CAC
// map, read-only, yet each carries its own system and WCET. Eight
// workers price the shared entry at once, so -race sees the sharing
// even on one CPU.
func TestAnalyzeAllSharesClassification(t *testing.T) {
	e := New(8)
	task := workload.CRC(8, workload.Slot(0))
	reqs := make([]Request, 8)
	for i := range reqs {
		sys := testSys()
		sys.Mem.BusDelay = 5 * i // excluded from the memo key
		reqs[i] = Request{Task: task, Sys: sys}
	}
	as, err := e.AnalyzeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range as {
		if a.L2 == nil || a.L2 != as[0].L2 {
			t.Fatalf("request %d does not share request 0's L2 result", i)
		}
		if reflect.ValueOf(a.CAC).UnsafePointer() != reflect.ValueOf(as[0].CAC).UnsafePointer() {
			t.Errorf("request %d does not share request 0's CAC map", i)
		}
		if i > 0 && (a == as[0] || a.IPET == as[0].IPET) {
			t.Fatalf("request %d shares request 0's priced outputs", i)
		}
		if a.Sys.Mem.BusDelay != reqs[i].Sys.Mem.BusDelay {
			t.Errorf("request %d carries bus delay %d, want %d", i, a.Sys.Mem.BusDelay, reqs[i].Sys.Mem.BusDelay)
		}
		ref, err := core.Analyze(task, reqs[i].Sys)
		if err != nil {
			t.Fatal(err)
		}
		if a.WCET != ref.WCET {
			t.Errorf("request %d: shared WCET %d != direct %d", i, a.WCET, ref.WCET)
		}
	}
}

// TestAnalyzeJointMatchesSequential: joint analysis over the engine's
// prepared set equals the sequential Prepare-loop version.
func TestAnalyzeJointMatchesSequential(t *testing.T) {
	sys := testSys()
	tasks := workload.Suite()[:3]
	prepared, err := New(0).PrepareAll(context.Background(), Requests(tasks, sys))
	if err != nil {
		t.Fatal(err)
	}
	got, err := interfere.AnalyzeJoint(prepared, interfere.AgeShift)
	if err != nil {
		t.Fatal(err)
	}
	var as []*core.Analysis
	for _, task := range tasks {
		a, err := core.Prepare(task, sys)
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	want, err := interfere.AnalyzeJoint(as, interfere.AgeShift)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Names {
		if got.SoloWCET[i] != want.SoloWCET[i] || got.JointWCET[i] != want.JointWCET[i] {
			t.Errorf("%s: engine solo/joint %d/%d != sequential %d/%d", want.Names[i],
				got.SoloWCET[i], got.JointWCET[i], want.SoloWCET[i], want.JointWCET[i])
		}
	}
}

// TestErrorIsLowestIndex: with several failing requests, the reported
// error must be the lowest-index one — carrying that request's task
// name — regardless of scheduling.
func TestErrorIsLowestIndex(t *testing.T) {
	sys := testSys()
	bad := workload.CRC(8, workload.Slot(1))
	bad.Facts = flow.NewFacts().Bound("nosuchlabel", 3) // unknown label: Prepare fails
	reqs := Requests([]core.Task{workload.CRC(8, workload.Slot(0)), bad, bad}, sys)
	reqs[2].Task.Name = "bad2"
	for trial := 0; trial < 10; trial++ {
		_, err := New(0).AnalyzeAll(context.Background(), reqs)
		if err == nil {
			t.Fatal("bad facts accepted")
		}
		if strings.Contains(err.Error(), "bad2") {
			t.Fatalf("error %v names request 2, want the lowest failing request", err)
		}
	}
}

// TestForEach: the engine's per-request fan-out runs every step exactly
// once across its pool, returns results in request order, reports the
// lowest failing request's error, and an empty batch runs nothing.
func TestForEach(t *testing.T) {
	e := New(4)
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i].Task.Name = fmt.Sprint(i)
	}
	var calls atomic.Int64
	out, err := e.batch(context.Background(), reqs, func(r Request) (*core.Analysis, error) {
		calls.Add(1)
		return &core.Analysis{Task: r.Task}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 || len(out) != 100 {
		t.Errorf("%d steps ran, %d results; want 100 of each", calls.Load(), len(out))
	}
	for i, a := range out {
		if a.Task.Name != fmt.Sprint(i) {
			t.Fatalf("out[%d] is request %s, want request order", i, a.Task.Name)
		}
	}

	_, err = New(8).batch(context.Background(), reqs[:64], func(r Request) (*core.Analysis, error) {
		if i, _ := strconv.Atoi(r.Task.Name); i >= 17 {
			return nil, fmt.Errorf("boom %d", i)
		}
		return &core.Analysis{}, nil
	})
	if err == nil || err.Error() != "boom 17" {
		t.Errorf("err = %v, want boom 17 (lowest failing request)", err)
	}

	out, err = e.batch(context.Background(), nil, func(Request) (*core.Analysis, error) {
		return nil, errors.New("no")
	})
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch = %v, %v; want no results and no error", out, err)
	}
}

// TestCancellation: a canceled context stops batch analysis and is
// reported as ctx.Err().
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := testSys()
	if _, err := New(0).AnalyzeAll(ctx, Requests(workload.Suite(), sys)); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeAll on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestConcurrentMemoHammer drives many concurrent requests through a
// small key set; under -race this doubles as the engine's concurrency
// check.
func TestConcurrentMemoHammer(t *testing.T) {
	e := New(8)
	base := []core.Task{
		workload.CRC(8, workload.Slot(0)),
		workload.Fib(20, workload.Slot(1)),
		workload.CountBits(4, workload.Slot(2)),
	}
	sys := testSys()
	var reqs []Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, Request{Task: base[i%len(base)], Sys: sys})
	}
	as, err := e.AnalyzeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range as {
		if a.WCET != as[i%len(base)].WCET {
			t.Errorf("request %d: WCET %d != first occurrence %d", i, a.WCET, as[i%len(base)].WCET)
		}
	}
	if _, misses := e.Stats(); misses != uint64(len(base)) {
		hits, _ := e.Stats()
		t.Errorf("stats = %d hits / %d misses, want misses = %d", hits, misses, len(base))
	}
	e.Reset()
	if _, err := e.Analyze(context.Background(), base[0], sys); err != nil {
		t.Fatal(err)
	}
	if _, misses := e.Stats(); misses != uint64(len(base)+1) {
		t.Errorf("Reset did not drop memo entries")
	}
}

// memoBackends enumerates every cache-backend shape the engine must be
// correct under: unbounded memory (the default), a tightly capped LRU
// (eviction mid-batch), a pure disk tier (declines live memo entries, so
// every request re-prepares) and a two-tier composition.
func memoBackends(t *testing.T) map[string]cachestore.CacheBackend {
	t.Helper()
	disk, err := cachestore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk2, err := cachestore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]cachestore.CacheBackend{
		"memory-unbounded": cachestore.NewMemory(0),
		"memory-capped":    cachestore.NewMemory(1),
		"disk-only":        disk,
		"twotier":          cachestore.NewTwoTier(cachestore.NewMemory(2), disk2),
	}
}

// TestBackendsPreserveDeterminism: the GOMAXPROCS 1-vs-8 determinism
// contract must hold against every cache backend — eviction, declined
// puts and two-tier promotion may change what is recomputed, never what
// is computed.
func TestBackendsPreserveDeterminism(t *testing.T) {
	sys := testSys()
	tasks := workload.Suite()[:4]
	ref := make([]int64, len(tasks))
	for i, task := range tasks {
		a, err := core.Analyze(task, sys)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = a.WCET
	}
	for name, backend := range memoBackends(t) {
		t.Run(name, func(t *testing.T) {
			e := NewWithCache(0, backend)
			for _, procs := range []int{1, 8} {
				old := runtime.GOMAXPROCS(procs)
				as, err := e.AnalyzeAll(context.Background(), Requests(tasks, sys))
				runtime.GOMAXPROCS(old)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range as {
					if a.WCET != ref[i] {
						t.Errorf("GOMAXPROCS=%d %s: WCET %d != sequential %d",
							procs, tasks[i].Name, a.WCET, ref[i])
					}
				}
			}
		})
	}
}

// TestBackendsPreserveCloneIsolation: mutating one handed-out clone must
// not leak into another, whichever backend holds (or refuses to hold)
// the memoized original.
func TestBackendsPreserveCloneIsolation(t *testing.T) {
	task := workload.CRC(8, workload.Slot(0))
	sys := testSys()
	ref, err := core.Analyze(task, sys)
	if err != nil {
		t.Fatal(err)
	}
	for name, backend := range memoBackends(t) {
		t.Run(name, func(t *testing.T) {
			e := NewWithCache(1, backend)
			as, err := e.PrepareAll(context.Background(), Requests([]core.Task{task, task}, sys))
			if err != nil {
				t.Fatal(err)
			}
			shift := make([]int, as[0].L2.Cfg.Sets)
			for s := range shift {
				shift[s] = as[0].L2.Cfg.Ways
			}
			as[0].L2.ReclassifyShift(shift)
			if err := as[0].ComputeWCET(); err != nil {
				t.Fatal(err)
			}
			if err := as[1].ComputeWCET(); err != nil {
				t.Fatal(err)
			}
			if as[1].WCET != ref.WCET {
				t.Errorf("untouched clone WCET %d != solo %d (mutation leaked)", as[1].WCET, ref.WCET)
			}
			if as[0].WCET <= as[1].WCET {
				t.Errorf("corrupted clone WCET %d not above solo %d", as[0].WCET, as[1].WCET)
			}
			checkPricedSolo(t, e, task, sys, ref.WCET)
		})
	}
}

// TestMemoLRUCapBoundsGrowth is the regression test for unbounded memo
// growth: a long sweep over many distinct prepare keys on a capped
// memory backend must (a) never hold more entries than the cap, (b)
// actually evict, and (c) stay bit-identical to the uncapped engine.
func TestMemoLRUCapBoundsGrowth(t *testing.T) {
	const cap = 2
	tasks := []core.Task{
		workload.CRC(8, workload.Slot(0)),
		workload.Fib(20, workload.Slot(1)),
		workload.CountBits(4, workload.Slot(2)),
		workload.MatMult(4, workload.Slot(3)),
		workload.CRC(16, workload.Slot(4)),
	}
	sys := testSys()
	// Two passes over five distinct keys: pass two re-prepares evicted
	// keys on the capped engine and hits the memo on the uncapped one.
	var reqs []Request
	for pass := 0; pass < 2; pass++ {
		reqs = append(reqs, Requests(tasks, sys)...)
	}
	mem := cachestore.NewMemory(cap)
	capped := NewWithCache(0, mem)
	uncapped := New(0)
	got, err := capped.AnalyzeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncapped.AnalyzeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if got[i].WCET != want[i].WCET {
			t.Errorf("request %d (%s): capped WCET %d != uncapped %d",
				i, reqs[i].Task.Name, got[i].WCET, want[i].WCET)
		}
		if gs, ws := got[i].ClassSummary(), want[i].ClassSummary(); gs != ws {
			t.Errorf("request %d (%s): capped classes %q != uncapped %q", i, reqs[i].Task.Name, gs, ws)
		}
	}
	st := mem.Stats()
	if st.Peak > cap {
		t.Errorf("memo peak %d entries exceeds cap %d", st.Peak, cap)
	}
	if st.Evictions == 0 {
		t.Errorf("five distinct keys through a cap-%d memo never evicted", cap)
	}
	if _, misses := uncapped.Stats(); misses != uint64(len(tasks)) {
		t.Errorf("uncapped engine missed %d times, want %d", misses, len(tasks))
	}
}

// TestMemoizedClonesShareSkeleton: every clone handed out for one
// memoized prepare must share the same compiled IPET skeleton, so sweep
// re-pricings are answered from its optimal basis instead of rebuilding
// structure.
func TestMemoizedClonesShareSkeleton(t *testing.T) {
	e := New(0)
	sys := testSys()
	task := workload.MatMult(4, workload.Slot(1))
	reqs := make([]Request, 6)
	for i := range reqs {
		s := sys
		s.Mem.BusDelay = i // excluded from the memo key
		reqs[i] = Request{Task: task, Sys: s}
	}
	as, err := e.PrepareAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range as {
		if a.Skel == nil {
			t.Fatalf("request %d: no skeleton", i)
		}
		if a.Skel != as[0].Skel {
			t.Fatalf("request %d: skeleton not shared across memoized clones", i)
		}
	}
	for _, a := range as {
		if err := a.ComputeWCET(); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := as[0].Skel.ReuseStats(); hits == 0 {
		t.Error("bus-delay sweep over one skeleton never priced from its optimal basis")
	}
}

// planOf returns the pricing plan a carries, nil for none.
func planOf(a *core.Analysis) unsafe.Pointer {
	return reflect.ValueOf(a).Elem().FieldByName("plan").UnsafePointer()
}

// adjustAndPrice bypasses, reclassifies and locks a the way the
// interference and locking passes do, then prices it.
func adjustAndPrice(a *core.Analysis) error {
	if _, err := interfere.ApplyBypass(a); err != nil {
		return err
	}
	shift := make([]int, a.L2.Cfg.Sets)
	for s := range shift {
		shift[s] = s % (a.L2.Cfg.Ways + 1)
	}
	a.L2.ReclassifyShift(shift)
	a.L2Override = map[cache.RefID]cache.Class{}
	for _, b := range a.G.Blocks {
		for seq := range a.Merged.Refs[b.ID] {
			if seq%2 == 0 {
				a.L2Override[cache.RefID{Block: b.ID, Seq: seq}] = cache.AlwaysMiss
			}
		}
	}
	return a.ComputeWCET()
}

// TestPricingPlanStaleness: the memo entry compiles one pricing plan and
// every AnalyzeAll result prices from it, while a PrepareAll clone
// carries none. Bypassing, reclassifying and locking clones therefore
// prices their own classification, equal to the same adjustments on a
// fresh Prepare, and the memo entry, re-priced at the same time on
// other goroutines, keeps its WCET. A handful of goroutines do both at
// once, so -race sees the plan shared across them.
func TestPricingPlanStaleness(t *testing.T) {
	ctx := context.Background()
	e := New(4)
	task := workload.CRC(8, workload.Slot(0))
	sys := testSys()
	memo, err := e.memoized(task, sys)
	if err != nil {
		t.Fatal(err)
	}
	plan := planOf(memo)
	if plan == nil {
		t.Fatal("memo entry carries no pricing plan")
	}
	solo, err := e.Analyze(ctx, task, sys)
	if err != nil {
		t.Fatal(err)
	}
	if planOf(solo) != plan {
		t.Fatal("AnalyzeAll result does not price from the memo entry's plan")
	}
	fresh, err := core.Prepare(task, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := adjustAndPrice(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.WCET == solo.WCET {
		t.Fatalf("adjusted WCET %d equals the solo WCET: the adjustments change nothing", fresh.WCET)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if w%2 == 0 {
					as, err := e.PrepareAll(ctx, Requests([]core.Task{task}, sys))
					if err != nil {
						errs <- err
						return
					}
					c := as[0]
					if planOf(c) != nil {
						errs <- fmt.Errorf("PrepareAll clone carries a pricing plan")
						return
					}
					if err := adjustAndPrice(c); err != nil {
						errs <- err
						return
					}
					if c.WCET != fresh.WCET || !reflect.DeepEqual(c.IPET.BlockCounts, fresh.IPET.BlockCounts) {
						errs <- fmt.Errorf("adjusted clone WCET %d, fresh Prepare adjusted the same way %d", c.WCET, fresh.WCET)
						return
					}
				} else {
					a, err := e.Analyze(ctx, task, sys)
					if err != nil {
						errs <- err
						return
					}
					if a.WCET != solo.WCET {
						errs <- fmt.Errorf("memo entry re-priced at %d while clones were adjusted, was %d", a.WCET, solo.WCET)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if planOf(memo) != plan {
		t.Error("memo entry's plan was replaced")
	}
	checkPricedSolo(t, e, task, sys, solo.WCET)
}
