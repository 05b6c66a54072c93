package arbiter

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestRoundRobinBoundFormula(t *testing.T) {
	for _, tc := range []struct{ n, l, want int }{
		{1, 5, 4}, {2, 5, 9}, {4, 5, 19}, {8, 2, 15},
	} {
		a := NewRoundRobin(tc.n, tc.l)
		if got := a.Bound(0); got != tc.want {
			t.Errorf("rr(%d,%d) bound = %d, want N*L-1 = %d", tc.n, tc.l, got, tc.want)
		}
	}
}

// driveRandom replays a random request pattern (each core sequential, at
// most one outstanding) and returns per-request waits plus grant windows.
func driveRandom(t *testing.T, a Arbiter, n int, seed int64) (waits []int64, grants [][2]int64, byCore map[int][][2]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sess := a.NewSession()
	nextFree := make([]int64, n) // per-core: earliest next request time
	type req struct {
		core int
		t    int64
	}
	var pending []req
	for i := 0; i < n; i++ {
		pending = append(pending, req{i, int64(rng.Intn(5))})
	}
	byCore = map[int][][2]int64{}
	for step := 0; step < 300; step++ {
		// Pop the earliest request (ties by core id).
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].t != pending[j].t {
				return pending[i].t < pending[j].t
			}
			return pending[i].core < pending[j].core
		})
		r := pending[0]
		pending = pending[1:]
		g := sess.Request(r.core, r.t)
		if g < r.t {
			t.Fatalf("%s: grant %d before request %d", a.Name(), g, r.t)
		}
		waits = append(waits, g-r.t)
		win := [2]int64{g, g + int64(a.Latency())}
		grants = append(grants, win)
		byCore[r.core] = append(byCore[r.core], win)
		nextFree[r.core] = win[1] + int64(rng.Intn(7))
		pending = append(pending, req{r.core, nextFree[r.core]})
	}
	return waits, grants, byCore
}

func assertNoOverlap(t *testing.T, name string, grants [][2]int64) {
	t.Helper()
	sorted := append([][2]int64(nil), grants...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i][0] < sorted[i-1][1] {
			t.Fatalf("%s: overlapping grants %v and %v", name, sorted[i-1], sorted[i])
		}
	}
}

func TestRoundRobinSimulatedWaitWithinBound(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		a := NewRoundRobin(n, 4)
		for seed := int64(0); seed < 5; seed++ {
			waits, grants, _ := driveRandom(t, a, n, seed)
			assertNoOverlap(t, a.Name(), grants)
			for _, w := range waits {
				if w > int64(a.Bound(0)) {
					t.Fatalf("rr n=%d: wait %d exceeds bound %d", n, w, a.Bound(0))
				}
			}
		}
	}
}

// OwnerAt returns which core owns the bus at an absolute cycle.
func (t *TDMA) OwnerAt(cycle int64) int {
	phase := cycle % t.period
	var start int64
	for _, s := range t.slots {
		end := start + int64(s.Len)
		if phase < end {
			return s.Owner
		}
		start = end
	}
	return -1
}

func TestTDMAGrantsStayInOwnSlots(t *testing.T) {
	a := NewTDMA([]Slot{{0, 6}, {1, 4}, {2, 8}}, 3)
	for seed := int64(0); seed < 5; seed++ {
		_, grants, byCore := driveRandom(t, a, 3, seed)
		assertNoOverlap(t, a.Name(), grants)
		for core, wins := range byCore {
			for _, w := range wins {
				for c := w[0]; c < w[1]; c++ {
					if a.OwnerAt(c) != core {
						t.Fatalf("core %d transaction at cycle %d in slot of core %d",
							core, c, a.OwnerAt(c))
					}
				}
			}
		}
	}
}

func TestTDMASimulatedWaitWithinBound(t *testing.T) {
	a := NewTDMA([]Slot{{0, 6}, {1, 4}, {2, 8}}, 3)
	bounds := map[int]int64{}
	for c := 0; c < 3; c++ {
		bounds[c] = int64(a.Bound(c))
	}
	for seed := int64(0); seed < 8; seed++ {
		sess := a.NewSession().(*tdmaSession)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 200; step++ {
			core := rng.Intn(3)
			at := int64(rng.Intn(1000))
			// Per-core serialization may push the request; the bound is
			// defined relative to the effective request time.
			eff := at
			if end, ok := sess.lastGrantEnd[core]; ok && end > eff {
				eff = end
			}
			g := sess.Request(core, at)
			if g-eff > bounds[core] {
				t.Fatalf("tdma core %d: wait %d beyond bound %d", core, g-eff, bounds[core])
			}
		}
	}
}

func TestTDMABoundTightness(t *testing.T) {
	// Single slot per owner, equal lengths = the PRET wheel: worst wait is
	// period - 1 when the request arrives one cycle into its own window...
	// exactly: misses its slot start by one and must wait almost a period.
	w := NewWheel(4, 5)
	want := int(w.period) - w.lat // arrive right after the usable start
	if got := w.Bound(0); got < want-1 || got > int(w.period) {
		t.Errorf("wheel bound = %d, want about %d", got, want)
	}
	// The coarse fallback can be worse than or equal to the exact bound
	// minus slack, never smaller than other slots' sum.
	if w.SumOfOtherSlots(0) < 3*5 {
		t.Errorf("sum-of-other-slots = %d", w.SumOfOtherSlots(0))
	}
}

func TestTDMABoundPhaseExactness(t *testing.T) {
	a := NewTDMA([]Slot{{0, 4}, {1, 7}, {0, 3}, {2, 5}}, 3)
	for core := 0; core < 3; core++ {
		bound := a.Bound(core)
		// Brute force over every phase must match (Bound is defined as
		// that maximum).
		worst := int64(0)
		for phase := int64(0); phase < a.period; phase++ {
			d := a.grantAfter(core, phase) - phase
			if d > worst {
				worst = d
			}
		}
		if int64(bound) != worst {
			t.Errorf("core %d bound %d != brute force %d", core, bound, worst)
		}
	}
}

func TestMultiBandwidthSharesAndBounds(t *testing.T) {
	weights := []int{4, 2, 1, 1}
	a := NewMultiBandwidth(weights, 2)
	// Slot shares must follow the weights exactly.
	counts := map[int]int{}
	for _, s := range a.slots {
		counts[s.Owner] += s.Len
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w * 2
		if counts[i] != want {
			t.Errorf("core %d got %d cycles per frame, want %d", i, counts[i], want)
		}
	}
	_ = total
	// Heavier cores must have no worse bounds than lighter ones.
	if a.Bound(0) > a.Bound(2) {
		t.Errorf("heavy core bound %d worse than light core %d", a.Bound(0), a.Bound(2))
	}
	// Versus uniform round robin over 4 cores with same latency, the
	// heavy core's bound must be tighter.
	rr := NewRoundRobin(4, 2)
	if a.Bound(0) >= rr.Bound(0)+a.Latency() {
		t.Errorf("mbba heavy bound %d not competitive with rr %d", a.Bound(0), rr.Bound(0))
	}
}

func TestMultiBandwidthGrantIsolation(t *testing.T) {
	a := NewMultiBandwidth([]int{3, 1}, 2)
	for seed := int64(0); seed < 5; seed++ {
		_, grants, _ := driveRandom(t, a, 2, seed)
		assertNoOverlap(t, a.Name(), grants)
	}
}

func TestWheelIsFairTDMA(t *testing.T) {
	w := NewWheel(6, 3)
	for c := 0; c < 6; c++ {
		if w.Bound(c) != w.Bound(0) {
			t.Errorf("wheel bounds differ across threads: %d vs %d", w.Bound(c), w.Bound(0))
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() { _ = recover() }()
		f()
		t.Error("expected panic")
	}
	mustPanic(func() { NewRoundRobin(0, 1) })
	mustPanic(func() { NewTDMA(nil, 1) })
	mustPanic(func() { NewTDMA([]Slot{{0, 2}}, 3) }) // slot shorter than latency
	mustPanic(func() { NewMultiBandwidth([]int{1, 0}, 1) })
}

// bruteForceBound is the retired O(period) implementation of TDMA.Bound:
// exact enumeration of every arrival phase. It is the oracle the
// boundary-enumeration rewrite must match bit for bit.
func bruteForceBound(t *TDMA, core int) int {
	worst := int64(0)
	for phase := int64(0); phase < t.Period(); phase++ {
		d := t.GrantAfter(core, phase) - phase
		if d > worst {
			worst = d
		}
	}
	return int(worst)
}

// TestTDMABoundMatchesBruteForce pins the boundary-enumeration Bound to
// the phase-exhaustive oracle on the canonical table shapes: PRET
// wheels, MBBA weighted tables, and random ragged slot tables with
// multiple slots per owner and idle owners interleaved.
func TestTDMABoundMatchesBruteForce(t *testing.T) {
	check := func(name string, tab *TDMA, cores int) {
		t.Helper()
		for c := 0; c < cores; c++ {
			if got, want := tab.Bound(c), bruteForceBound(tab, c); got != want {
				t.Errorf("%s core %d: Bound %d, brute force %d", name, c, got, want)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, lat := range []int{1, 2, 7, 16} {
			check(fmt.Sprintf("wheel n=%d L=%d", n, lat), NewWheel(n, lat), n)
		}
	}
	for _, w := range [][]int{{1, 1}, {4, 2, 1, 1}, {7, 3, 2}, {1, 5}, {2, 2, 2, 1, 1}} {
		for _, lat := range []int{1, 3, 6} {
			check(fmt.Sprintf("mbba w=%v L=%d", w, lat), NewMultiBandwidth(w, lat), len(w))
		}
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		lat := 1 + rng.Intn(9)
		owners := 1 + rng.Intn(4)
		nslots := 1 + rng.Intn(6)
		slots := make([]Slot, nslots)
		for i := range slots {
			slots[i] = Slot{Owner: rng.Intn(owners), Len: lat + rng.Intn(3*lat)}
		}
		// Only owners that appear in the table may be probed (others panic,
		// in both implementations).
		present := map[int]bool{}
		for _, s := range slots {
			present[s.Owner] = true
		}
		tab := NewTDMA(slots, lat)
		for c := range present {
			if got, want := tab.Bound(c), bruteForceBound(tab, c); got != want {
				t.Fatalf("trial %d (%s) core %d: Bound %d, brute force %d\nslots %+v lat %d",
					trial, tab.Name(), c, got, want, slots, lat)
			}
		}
	}
}

// TestTDMABoundAdjacentOwnedSlots covers the boundary case where one
// owner holds consecutive slots, so a window that no longer fits in the
// first slot is immediately feasible in the second.
func TestTDMABoundAdjacentOwnedSlots(t *testing.T) {
	tab := NewTDMA([]Slot{{Owner: 0, Len: 8}, {Owner: 0, Len: 8}, {Owner: 1, Len: 4}}, 4)
	for c := 0; c < 2; c++ {
		if got, want := tab.Bound(c), bruteForceBound(tab, c); got != want {
			t.Errorf("core %d: Bound %d, brute force %d", c, got, want)
		}
	}
}

// TestSessionsShareNothing: an Arbiter is an immutable policy, so
// concurrent runs over one value must each see exactly the grants of
// that run alone, and the race detector must stay quiet.
func TestSessionsShareNothing(t *testing.T) {
	arbs := []Arbiter{
		NewRoundRobin(4, 3),
		NewTDMA([]Slot{{0, 5}, {1, 3}, {2, 4}, {3, 3}}, 3),
		NewMultiBandwidth([]int{3, 1, 2, 2}, 2),
		NewWheel(4, 3),
	}
	for _, a := range arbs {
		replay := func(seed int64) []int64 {
			sess := a.NewSession()
			rng := rand.New(rand.NewSource(seed))
			var at int64
			grants := make([]int64, 0, 200)
			for i := 0; i < 200; i++ {
				at += int64(rng.Intn(4))
				grants = append(grants, sess.Request(rng.Intn(4), at))
			}
			return grants
		}
		const runs = 8
		want := make([][]int64, runs)
		for seed := range want {
			want[seed] = replay(int64(seed))
		}
		got := make([][]int64, runs)
		var wg sync.WaitGroup
		for seed := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[seed] = replay(int64(seed))
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concurrent sessions diverge from solo runs", a.Name())
		}
	}
}
